package workloads

import (
	"fmt"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/tm"
)

// This file is the workload side of the backend-differential conformance
// suite: deterministic operation cells whose committed content is
// independent of commit interleaving, so a simulator run and a host-native
// run of the same cell must fingerprint identically even though their
// physical serialization orders differ.
//
// The trick is content-commutativity. Every update writes a value that is
// a pure function of its key (DiffValue), inserts draw only from the
// bottom quarter of the key space and deletes only from the top half, so
// for any two committed operations A and B, A∘B and B∘A leave the same
// (key -> value) mapping:
//
//   - insert(k, DiffValue(k)) with itself: same key, same value;
//   - insert with insert on different keys: disjoint effects;
//   - delete with delete: idempotent, disjoint or identical either way;
//   - insert with delete: their key ranges never overlap;
//   - lookups commute with everything.
//
// The operations still contend physically (hot probe chains, shared tree
// paths), so the cells exercise real conflicts — only their final content
// is order-free. Structure fingerprints are content-based (Fingerprint
// canonicalises through Lookup), so tree-shape differences from delete
// order do not leak into the comparison.
//
// The bottom-quarter/top-half split also bounds hashtable occupancy: keys
// ever live <= populated keys + a quarter of the key space, comfortably
// below capacity, so neither the run nor a replay in a different order can
// hit ErrTableFull.

// DiffValue is the canonical value bound to key by every differential
// insert — a pure function of the key, so concurrent inserts of one key
// commute exactly.
func DiffValue(key uint64) uint64 { return key*0x9e3779b97f4a7c15 | 1 }

// DiffOp performs one differential-cell operation, fully determined by
// (r's seed, update): a lookup anywhere in the key space, an insert of
// DiffValue in the bottom quarter, or a delete in the top half (structures
// without Delete — the B-tree — substitute a lookup).
func DiffOp(ds DataStructure, tx tm.Txn, r *Rand, update bool) error {
	ks := ds.KeySpace()
	l, ok := ds.(Lookuper)
	if !ok {
		return fmt.Errorf("workloads: %s does not support Lookup", ds.Name())
	}
	if !update {
		l.Lookup(tx, r.Intn(ks))
		return nil
	}
	if r.Percent(50) {
		key := r.Intn(ks / 4)
		switch s := ds.(type) {
		case *BST:
			s.Insert(tx, key, DiffValue(key))
		case *Hashtable:
			_, err := s.Insert(tx, key, DiffValue(key))
			return err
		case *BTree:
			s.Insert(tx, key, DiffValue(key))
		default:
			return fmt.Errorf("workloads: no differential insert for %s", ds.Name())
		}
		return nil
	}
	key := ks/2 + r.Intn(ks-ks/2)
	switch s := ds.(type) {
	case *BST:
		s.Delete(tx, key)
	case *Hashtable:
		s.Delete(tx, key)
	case *BTree:
		s.Lookup(tx, key)
	default:
		return fmt.Errorf("workloads: no differential delete for %s", ds.Name())
	}
	return nil
}

// RunDiffThread drives cfg.Ops differential operations through th, logging
// every committed operation with its serialization stamp. It is
// RunThreadRecorded with DiffOp as the operation body; the same
// (seed, thread) arithmetic keeps cells comparable across backends.
func RunDiffThread(th tm.Thread, ds DataStructure, cfg DriverConfig, log *OpLog) error {
	return RunDiffThreadAs(th, th.ID(), ds, cfg, log)
}

// RunDiffThreadAs is RunDiffThread with an explicit logical thread id, so
// a single-core scheme (the sequential baseline) can execute every logical
// thread's op stream back to back and still commit the exact multiset of
// operations a concurrent cell commits.
func RunDiffThreadAs(th tm.Thread, id int, ds DataStructure, cfg DriverConfig, log *OpLog) error {
	return runStable(th, id, ds, cfg, log, DiffOp)
}

// VerifyDiffOracle checks a differential run the way VerifyOracle checks a
// fault-injection run: structure invariants over the run's memory, then a
// serial replay of the committed-op log (in stamp order, via DiffOp) into
// a fresh structure whose content fingerprint the concurrent run must
// match. Returns the report so callers can additionally compare
// fingerprints across backends.
func VerifyDiffOracle(ds DataStructure, m *mem.Memory, build func(*mem.Memory) DataStructure,
	populateSeed uint64, log *OpLog) (OracleReport, error) {
	return verifyOracle(ds, m, build, populateSeed, log, DiffOp)
}
