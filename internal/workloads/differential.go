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
// (seed, update): a lookup anywhere in the key space, an insert of
// DiffValue in the bottom quarter, or a delete in the top half (structures
// without Delete — the B-tree — substitute a lookup).
func DiffOp(ds DataStructure, tx tm.Txn, seed uint64, update bool) error {
	var r Rand
	r.Seed(seed)
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
		case *ObjBST:
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
	case *ObjBST:
		s.Delete(tx, key)
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
	base := cfg.Seed + uint64(id)*0x9e3779b9 + 1
	decide := NewRand(base)
	var (
		update bool
		opSeed uint64
	)
	body := func(tx tm.Txn) error { return DiffOp(ds, tx, opSeed, update) }
	for i := 0; i < cfg.Ops; i++ {
		update = decide.Percent(cfg.UpdatePercent)
		opSeed = base ^ (uint64(i+1) * 0x9e3779b97f4a7c15)
		if err := th.Atomic(body); err != nil {
			return fmt.Errorf("diff op %d on %s: %w", i, ds.Name(), err)
		}
		log.add(OpRecord{Thread: id, Index: i, Seed: opSeed, Update: update, Stamp: th.Stamp()})
	}
	return nil
}

// VerifyDiffOracle checks a differential run the way VerifyOracle checks a
// fault-injection run: structure invariants over the run's memory, then a
// serial replay of the committed-op log (in stamp order, via DiffOp) into
// a fresh structure whose content fingerprint the concurrent run must
// match. Returns the report so callers can additionally compare
// fingerprints across backends.
func VerifyDiffOracle(ds DataStructure, m *mem.Memory, build func(*mem.Memory) DataStructure,
	populateSeed uint64, log *OpLog) (OracleReport, error) {
	rep := OracleReport{Committed: log.Len()}
	if ic, ok := ds.(InvariantChecker); ok {
		if err := ic.CheckInvariants(m); err != nil {
			return rep, fmt.Errorf("structure invariant violated after run: %w", err)
		}
	}
	rep.RunFingerprint = Fingerprint(ds, Direct{M: m})

	m2 := mem.New()
	ds2 := build(m2)
	ds2.Populate(m2, NewRand(populateSeed))
	d2 := Direct{M: m2}
	for _, r := range log.Serialized() {
		if err := DiffOp(ds2, d2, r.Seed, r.Update); err != nil {
			return rep, fmt.Errorf("oracle replay of diff op (thread %d, index %d): %w", r.Thread, r.Index, err)
		}
	}
	if ic, ok := ds2.(InvariantChecker); ok {
		if err := ic.CheckInvariants(m2); err != nil {
			return rep, fmt.Errorf("oracle replay violated invariants (replay bug): %w", err)
		}
	}
	rep.OracleFingerprint = Fingerprint(ds2, d2)
	if rep.RunFingerprint != rep.OracleFingerprint {
		return rep, fmt.Errorf("final state diverges from sequential oracle after %d committed ops: run %016x, oracle %016x",
			rep.Committed, rep.RunFingerprint, rep.OracleFingerprint)
	}
	return rep, nil
}
