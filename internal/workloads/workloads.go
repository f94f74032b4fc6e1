// Package workloads implements the transactional data structures the paper
// evaluates (§7.1): a hashtable, a binary search tree and a B-tree — plus
// the parameterised microbenchmark kernel of §7.3 (Fig 15). Every structure
// is written once against tm.Txn and runs unchanged under the lock,
// sequential, STM, HASTM, HTM and HyTM schemes.
//
// The structures are laid out in simulated memory with the paper's cache
// behaviour in mind: the hashtable spreads keys and values across separate
// arrays (cache reuse < 3%), BST nodes pack a key and children on one line
// (intermediate reuse), and B-tree nodes span two lines holding several
// keys each (high spatial reuse, ~68% in the paper).
package workloads

import (
	"fmt"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/tm"
)

// Rand is a small deterministic xorshift generator, seeded per thread so
// runs are reproducible.
type Rand struct{ s uint64 }

// NewRand returns a generator for the given seed (0 is remapped).
func NewRand(seed uint64) *Rand {
	r := new(Rand)
	r.Seed(seed)
	return r
}

// Seed restarts r as NewRand(seed) would start a fresh generator; drivers
// that reseed per operation keep one Rand instead of allocating each time.
func (r *Rand) Seed(seed uint64) {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	r.s = seed
}

// Next returns the next pseudo-random 64-bit value.
func (r *Rand) Next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// Intn returns a value in [0, n). n must be positive: a modulus of zero
// would be a division by zero, so a zero n panics with a message naming
// this precondition instead of a bare runtime error. Callers whose n is
// data-dependent (e.g. drawing from a key space that may have shrunk to
// one element) must guard or validate before drawing.
func (r *Rand) Intn(n uint64) uint64 {
	if n == 0 {
		panic("workloads: Rand.Intn(0): n must be > 0")
	}
	return r.Next() % n
}

// Percent reports true with probability p/100.
func (r *Rand) Percent(p int) bool { return r.Next()%100 < uint64(p) }

// DataStructure is a transactional container driven by the benchmark
// harness. Populate runs before the measured region (direct memory access,
// zero simulated cost, matching the paper's pre-populated structures);
// Op runs one operation inside the caller-provided transaction handle.
type DataStructure interface {
	Name() string
	// Populate fills the structure with its initial elements.
	Populate(m *mem.Memory, r *Rand)
	// Op performs one randomly chosen operation: a lookup, or a structural
	// update when update is true.
	Op(tx tm.Txn, r *Rand, update bool) error
	// KeySpace returns the size of the key universe operations draw from.
	KeySpace() uint64
}

// Direct is a tm.Txn over raw simulated memory with no concurrency control
// and no simulated cost. It exists so structures can be populated before
// the measured run using the same insertion code.
type Direct struct{ M *mem.Memory }

var _ tm.Txn = Direct{}

// Load reads a word directly.
func (d Direct) Load(addr uint64) uint64 { return d.M.Load(addr) }

// Store writes a word directly.
func (d Direct) Store(addr, val uint64) { d.M.Store(addr, val) }

// LoadObj reads an object field directly.
func (d Direct) LoadObj(base, off uint64) uint64 { return d.M.Load(base + off) }

// StoreObj writes an object field directly.
func (d Direct) StoreObj(base, off, val uint64) { d.M.Store(base+off, val) }

// Atomic runs body directly.
func (d Direct) Atomic(body func(tm.Txn) error) error { return body(d) }

// OrElse runs the first alternative.
func (d Direct) OrElse(alts ...func(tm.Txn) error) error {
	if len(alts) == 0 {
		return nil
	}
	return alts[0](d)
}

// Retry is meaningless outside a transactional system.
func (d Direct) Retry() { panic("workloads: Retry on a Direct handle") }

// Abort is meaningless outside a transactional system.
func (d Direct) Abort() { panic("workloads: Abort on a Direct handle") }

// Exec is free outside the simulator.
func (d Direct) Exec(n uint64) {}

// Alloc reserves memory directly.
func (d Direct) Alloc(size, align uint64) uint64 { return d.M.Alloc(size, align) }

// StoreInit writes directly.
func (d Direct) StoreInit(addr, val uint64) { d.M.Store(addr, val) }

// DriverConfig describes one benchmark run of a data structure.
type DriverConfig struct {
	Ops           int // operations per thread
	UpdatePercent int // fraction of operations that mutate (paper: 20)
	Seed          uint64
}

// RunThread performs cfg.Ops operations on ds, each in its own atomic
// block (the paper's coarse-grained atomic sections encapsulate what
// coarse-grained locking would synchronise on).
func RunThread(th tm.Thread, ds DataStructure, cfg DriverConfig) error {
	r := NewRand(cfg.Seed + uint64(th.ID())*0x9e3779b9 + 1)
	// One body for the whole run: a closure built per operation is a heap
	// allocation per transaction.
	var update bool
	body := func(tx tm.Txn) error { return ds.Op(tx, r, update) }
	for i := 0; i < cfg.Ops; i++ {
		update = r.Percent(cfg.UpdatePercent)
		if err := th.Atomic(body); err != nil {
			return fmt.Errorf("op %d on %s: %w", i, ds.Name(), err)
		}
	}
	return nil
}

// RunThreadStable is RunThread with retry-stable randomness: every
// operation draws from a generator derived from (seed, op index), seeded
// inside the atomic block, so an aborted and re-executed transaction
// replays exactly the same operation instead of advancing the stream.
// Schemes that re-execute transactions (aggressive HASTM commits, HTM
// capacity aborts, HyTM fallbacks) therefore apply the same logical
// operation sequence as schemes that never abort — the property the
// cross-scheme conformance tests check.
func RunThreadStable(th tm.Thread, ds DataStructure, cfg DriverConfig) error {
	return runStable(th, th.ID(), ds, cfg, nil, DataStructure.Op)
}

// opFunc applies one operation to ds, drawing its keys and values from r.
type opFunc func(ds DataStructure, tx tm.Txn, r *Rand, update bool) error

// runStable is the one retry-stable driver: logical thread id's op stream
// (update decisions from one generator, per-op seed base ^ (i+1)·φ) applied
// through op, each committed operation appended to log when there is one,
// stamped with the thread's serialization stamp.
func runStable(th tm.Thread, id int, ds DataStructure, cfg DriverConfig, log *OpLog, op opFunc) error {
	base := cfg.Seed + uint64(id)*0x9e3779b9 + 1
	decide := NewRand(base)
	// One body and one block of per-op state for the whole run: a closure
	// built per operation is a heap allocation per transaction.
	var cur struct {
		update bool
		seed   uint64
		rand   Rand
	}
	body := func(tx tm.Txn) error {
		cur.rand.Seed(cur.seed)
		return op(ds, tx, &cur.rand, cur.update)
	}
	for i := 0; i < cfg.Ops; i++ {
		cur.update = decide.Percent(cfg.UpdatePercent)
		cur.seed = base ^ (uint64(i+1) * 0x9e3779b97f4a7c15)
		if err := th.Atomic(body); err != nil {
			return fmt.Errorf("op %d on %s: %w", i, ds.Name(), err)
		}
		if log != nil {
			log.add(OpRecord{Thread: id, Index: i, Seed: cur.seed, Update: cur.update, Stamp: th.Stamp()})
		}
	}
	return nil
}

// Lookuper is the read interface every keyed structure exposes; used by
// Fingerprint to canonicalise contents independent of physical layout.
type Lookuper interface {
	Lookup(tx tm.Txn, key uint64) (uint64, bool)
}

// Fingerprint folds the structure's entire visible contents — every
// (key, value) binding reachable through Lookup over the key space — into
// an FNV-1a hash. Two structures fingerprint equal iff they hold the same
// mappings, regardless of tree shape, probe order or node addresses, so
// different TM schemes applying the same operation sequence must agree.
func Fingerprint(ds DataStructure, tx tm.Txn) uint64 {
	l, ok := ds.(Lookuper)
	if !ok {
		panic(fmt.Sprintf("workloads: %s does not support Lookup", ds.Name()))
	}
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	for k := uint64(0); k < ds.KeySpace(); k++ {
		if v, present := l.Lookup(tx, k); present {
			mix(k)
			mix(v)
		}
	}
	return h
}
