// Package locksync provides the non-transactional baselines the paper
// compares against: coarse-grained lock-based synchronization (the dashed
// lines of Fig 11, the "Lock" bars of Fig 16/18-20) and plain sequential
// execution (the Fig 16/17 normalisation baseline).
//
// Both are one tm.System, with and without the lock, so workloads run
// unchanged. Its Txn handle executes accesses directly — no barriers, no
// rollback. Retry and Abort are unsupported: those semantics are exactly
// what locks cannot compose (§1), and calling them panics with a clear
// message.
package locksync

import (
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// System is one non-transactional baseline. With a lock it is a single
// coarse-grained test-and-test-and-set spinlock in simulated memory: the
// same structure-wide lock the paper's lock versions take around each
// operation (e.g. the BST root lock that serialises all operations because
// of rotations). Without one (seq) it executes atomic blocks directly with
// no synchronization at all — the fastest possible single-thread
// execution, the normalisation baseline of Fig 16/17, which must only be
// run on one core.
type System struct {
	name string
	lock uint64 // the lock word's address; 0 for seq
}

var _ tm.System = (*System)(nil)

// NewLock creates the lock baseline with one global lock.
func NewLock(machine *sim.Machine) *System {
	l := machine.Mem.Alloc(mem.LineSize, mem.LineSize) // own line: no false sharing
	return &System{name: "lock", lock: l}
}

// NewSeq creates the sequential baseline.
func NewSeq(machine *sim.Machine) *System { return &System{name: "seq"} }

// Name identifies the scheme.
func (s *System) Name() string { return s.name }

// Thread binds the baseline to a core.
func (s *System) Thread(ctx *sim.Ctx) tm.Thread {
	return &thread{lock: s.lock, ctx: ctx, backoff: *tm.NewBackoff(ctx.ID())}
}

type thread struct {
	lock    uint64
	ctx     *sim.Ctx
	backoff tm.Backoff
	in      bool
}

var (
	_ tm.Thread = (*thread)(nil)
	_ tm.Txn    = (*thread)(nil)
)

// ID returns the simulated core id.
func (t *thread) ID() int { return t.ctx.ID() }

// Stamp returns the core clock, the serialization stamp of the most
// recently committed atomic block on simulator backends.
func (t *thread) Stamp() uint64 { return t.ctx.Clock() }

// Atomic runs body once, under the global lock if there is one. Nested
// calls are flattened into the enclosing block.
func (t *thread) Atomic(body func(tm.Txn) error) error {
	if t.in {
		return body(t) // flat nesting
	}
	t.acquire()
	t.in = true
	defer func() {
		t.in = false
		t.release()
		t.ctx.Telem().Inc(telemetry.Commits)
		// A lock-based critical section always completes, so the escalation
		// ladder's retry budget can never trip; the commit note alone keeps
		// the progress watchdog fed.
		t.ctx.NoteCommit()
	}()
	return body(t)
}

func (t *thread) acquire() {
	if t.lock == 0 {
		return
	}
	ctx := t.ctx
	prev := ctx.SetCat(telemetry.Lock)
	defer ctx.SetCat(prev)
	for {
		// Test-and-test-and-set: spin on a read before attempting the CAS.
		for ctx.Load(t.lock) != 0 {
			ctx.Exec(2)
			t.backoff.Wait(ctx)
		}
		ctx.Exec(2)
		if ok, _ := ctx.CAS(t.lock, 0, 1); ok {
			ctx.Telem().Inc(telemetry.LockAcquires)
			t.backoff.Reset()
			return
		}
	}
}

func (t *thread) release() {
	if t.lock == 0 {
		return
	}
	ctx := t.ctx
	prev := ctx.SetCat(telemetry.Lock)
	ctx.Store(t.lock, 0)
	ctx.SetCat(prev)
}

func (t *thread) require() {
	if !t.in {
		panic("locksync: access outside the atomic block")
	}
}

func (t *thread) Load(addr uint64) uint64 {
	t.require()
	return t.ctx.Load(addr)
}

func (t *thread) Store(addr, val uint64) {
	t.require()
	t.ctx.Store(addr, val)
}

func (t *thread) LoadObj(base, off uint64) uint64 { return t.Load(base + off) }

func (t *thread) StoreObj(base, off, val uint64) { t.Store(base+off, val) }

func (t *thread) OrElse(alternatives ...func(tm.Txn) error) error {
	panic("locksync: orElse requires a transactional system")
}

func (t *thread) Retry() {
	panic("locksync: retry requires a transactional system")
}

func (t *thread) Abort() {
	panic("locksync: abort requires a transactional system")
}

// Exec charges application compute to the simulated clock.
func (t *thread) Exec(n uint64) { t.ctx.Exec(n) }

// Alloc reserves memory for a new object.
func (t *thread) Alloc(size, align uint64) uint64 { return t.ctx.Alloc(size, align) }

// StoreInit initialises not-yet-published memory.
func (t *thread) StoreInit(addr, val uint64) { t.ctx.Store(addr, val) }
