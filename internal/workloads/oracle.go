package workloads

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/tm"
)

// OpRecord identifies one committed data-structure operation precisely
// enough to replay it: the per-op RNG seed and update flag reproduce the
// exact keys and values RunThreadStable drew, and the commit stamp orders
// the record among all threads' operations.
type OpRecord struct {
	Thread int
	Index  int    // op index within the thread's run
	Seed   uint64 // per-op RNG seed (retry-stable)
	Update bool
	Stamp  uint64 // committing core's clock right after the atomic block
}

// OpLog collects the committed operations of a concurrent run. Appends
// are mutex-protected: threads log after Atomic returns, outside any
// scheduler grant, so two cores' appends can race in host time — but the
// record CONTENT is deterministic, and Serialized sorts on it, so the
// serialized log is identical on every run.
type OpLog struct {
	mu  sync.Mutex
	ops []OpRecord
}

// NewOpLog returns an empty log.
func NewOpLog() *OpLog { return &OpLog{} }

// NewOpLogCap returns an empty log with room for n records, so a driver
// that knows how many operations can commit never grows it.
func NewOpLogCap(n int) *OpLog { return &OpLog{ops: make([]OpRecord, 0, n)} }

func (l *OpLog) add(r OpRecord) {
	l.mu.Lock()
	l.ops = append(l.ops, r)
	l.mu.Unlock()
}

// Add appends one committed-operation record. Exposed for drivers that
// live outside this package (the open-loop service driver) but want their
// runs verified by the same sequential oracle.
func (l *OpLog) Add(r OpRecord) { l.add(r) }

// Len returns how many operations committed.
func (l *OpLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ops)
}

// Serialized sorts the log into its equivalent serial order and returns
// it, without a copy: ascending commit stamp, ties broken by (thread,
// index), a key no two records share. The simulator grants operations in
// ascending clock order (ties to the lower core id), so a later grant
// never carries a smaller clock — two committed transactions that
// conflicted are therefore ordered by their stamps exactly as conflict
// detection serialized them, and transactions with equal stamps or no
// ordering constraint commuted on the structure. Replaying in this order
// reproduces the concurrent run's final state. Call it once the run is
// over; a later Add appends after the sorted records.
func (l *OpLog) Serialized() []OpRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	slices.SortFunc(l.ops, func(a, b OpRecord) int {
		return cmp.Or(cmp.Compare(a.Stamp, b.Stamp), cmp.Compare(a.Thread, b.Thread), cmp.Compare(a.Index, b.Index))
	})
	return l.ops
}

// RunThreadRecorded is RunThreadStable plus committed-operation logging:
// each successful atomic block appends an OpRecord stamped with the
// core's clock at commit. The fault-injection conformance suite replays
// the log serially against a sequential oracle.
func RunThreadRecorded(th tm.Thread, ds DataStructure, cfg DriverConfig, log *OpLog) error {
	return runStable(th, th.ID(), ds, cfg, log, DataStructure.Op)
}

// InvariantChecker is implemented by structures that can verify their own
// internal consistency by walking raw memory — the per-structure
// invariants the fault-injection suite asserts after every perturbed run.
type InvariantChecker interface {
	CheckInvariants(m *mem.Memory) error
}

// OracleReport summarises one oracle verification.
type OracleReport struct {
	Committed         int
	RunFingerprint    uint64
	OracleFingerprint uint64
}

// VerifyOracle checks a (possibly fault-perturbed) concurrent run's final
// structure state: first the structure's own invariants over the run's
// memory, then a full sequential replay — a fresh memory is populated
// with the same seed and the committed-operation log is applied serially
// through a Direct handle — whose content fingerprint the concurrent
// structure must match exactly. build must construct the same structure
// configuration in the given memory that ds was built with.
func VerifyOracle(ds DataStructure, m *mem.Memory, build func(*mem.Memory) DataStructure,
	populateSeed uint64, log *OpLog) (OracleReport, error) {
	return verifyOracle(ds, m, build, populateSeed, log, DataStructure.Op)
}

// verifyOracle is the one replay: op is what the run's driver applied.
func verifyOracle(ds DataStructure, m *mem.Memory, build func(*mem.Memory) DataStructure,
	populateSeed uint64, log *OpLog, op opFunc) (OracleReport, error) {
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
	var opRand Rand
	for _, r := range log.Serialized() {
		opRand.Seed(r.Seed)
		if err := op(ds2, d2, &opRand, r.Update); err != nil {
			return rep, fmt.Errorf("oracle replay of op (thread %d, index %d): %w", r.Thread, r.Index, err)
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
