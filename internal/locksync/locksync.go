// Package locksync provides the non-transactional baselines the paper
// compares against: coarse-grained lock-based synchronization (the dashed
// lines of Fig 11, the "Lock" bars of Fig 16/18-20) and plain sequential
// execution (the Fig 16/17 normalisation baseline).
//
// Both implement tm.System so workloads run unchanged. Their Txn handles
// execute accesses directly — no barriers, no rollback. Retry and Abort
// are unsupported: those semantics are exactly what locks cannot compose
// (§1), and calling them panics with a clear message.
package locksync

import (
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// LockSystem is a single coarse-grained test-and-test-and-set spinlock in
// simulated memory: the same structure-wide lock the paper's lock versions
// take around each operation (e.g. the BST root lock that serialises all
// operations because of rotations).
type LockSystem struct {
	machine *sim.Machine
	lock    uint64
}

var _ tm.System = (*LockSystem)(nil)

// NewLock creates the lock baseline with one global lock.
func NewLock(machine *sim.Machine) *LockSystem {
	l := machine.Mem.Alloc(mem.LineSize, mem.LineSize) // own line: no false sharing
	return &LockSystem{machine: machine, lock: l}
}

// Name identifies the scheme.
func (s *LockSystem) Name() string { return "lock" }

// Thread binds the lock baseline to a core.
func (s *LockSystem) Thread(ctx *sim.Ctx) tm.Thread {
	return &lockThread{sys: s, ctx: ctx, backoff: tm.NewBackoff(ctx.ID())}
}

type lockThread struct {
	sys     *LockSystem
	ctx     *sim.Ctx
	backoff *tm.Backoff
	held    bool
}

var (
	_ tm.Thread = (*lockThread)(nil)
	_ tm.Txn    = (*lockThread)(nil)
)

func (t *lockThread) Ctx() *sim.Ctx { return t.ctx }

// ID returns the simulated core id.
func (t *lockThread) ID() int { return t.ctx.ID() }

// Stamp returns the core clock, the serialization stamp of the most
// recently committed atomic block on simulator backends.
func (t *lockThread) Stamp() uint64 { return t.ctx.Clock() }

// Atomic acquires the global lock, runs body once, and releases. Nested
// calls are flattened (the lock is already held).
func (t *lockThread) Atomic(body func(tm.Txn) error) error {
	if t.held {
		return body(t) // flat nesting under one lock
	}
	t.acquire()
	t.held = true
	defer func() {
		t.held = false
		t.release()
		t.ctx.Telem().Inc(telemetry.Commits)
		// A lock-based critical section always completes, so the escalation
		// ladder's retry budget can never trip; the commit note alone keeps
		// the progress watchdog fed.
		t.ctx.NoteCommit()
	}()
	return body(t)
}

func (t *lockThread) acquire() {
	ctx := t.ctx
	prev := ctx.SetCat(telemetry.Lock)
	defer ctx.SetCat(prev)
	for {
		// Test-and-test-and-set: spin on a read before attempting the CAS.
		for ctx.Load(t.sys.lock) != 0 {
			ctx.Exec(2)
			t.backoff.Wait(ctx)
		}
		ctx.Exec(2)
		if ok, _ := ctx.CAS(t.sys.lock, 0, 1); ok {
			ctx.Telem().Inc(telemetry.LockAcquires)
			t.backoff.Reset()
			return
		}
	}
}

func (t *lockThread) release() {
	ctx := t.ctx
	prev := ctx.SetCat(telemetry.Lock)
	ctx.Store(t.sys.lock, 0)
	ctx.SetCat(prev)
}

func (t *lockThread) require() {
	if !t.held {
		panic("locksync: access outside the lock-protected block")
	}
}

func (t *lockThread) Load(addr uint64) uint64 {
	t.require()
	return t.ctx.Load(addr)
}

func (t *lockThread) Store(addr, val uint64) {
	t.require()
	t.ctx.Store(addr, val)
}

func (t *lockThread) LoadObj(base, off uint64) uint64 { return t.Load(base + off) }

func (t *lockThread) StoreObj(base, off, val uint64) { t.Store(base+off, val) }

func (t *lockThread) OrElse(alternatives ...func(tm.Txn) error) error {
	panic("locksync: orElse requires a transactional system")
}

func (t *lockThread) Retry() {
	panic("locksync: retry requires a transactional system")
}

func (t *lockThread) Abort() {
	panic("locksync: abort requires a transactional system")
}

// Exec charges application compute to the simulated clock.
func (t *lockThread) Exec(n uint64) { t.ctx.Exec(n) }

// Alloc reserves memory for a new object.
func (t *lockThread) Alloc(size, align uint64) uint64 { return t.ctx.Alloc(size, align) }

// StoreInit initialises not-yet-published memory.
func (t *lockThread) StoreInit(addr, val uint64) { t.ctx.Store(addr, val) }

// SeqSystem executes atomic blocks directly with no synchronization at
// all — the fastest possible single-thread execution, used as the
// normalisation baseline of Fig 16/17. It must only be run on one core.
type SeqSystem struct {
	machine *sim.Machine
}

var _ tm.System = (*SeqSystem)(nil)

// NewSeq creates the sequential baseline.
func NewSeq(machine *sim.Machine) *SeqSystem {
	return &SeqSystem{machine: machine}
}

// Name identifies the scheme.
func (s *SeqSystem) Name() string { return "seq" }

// Thread binds the sequential baseline to a core.
func (s *SeqSystem) Thread(ctx *sim.Ctx) tm.Thread {
	return &seqThread{ctx: ctx}
}

type seqThread struct {
	ctx *sim.Ctx
	in  bool
}

var (
	_ tm.Thread = (*seqThread)(nil)
	_ tm.Txn    = (*seqThread)(nil)
)

func (t *seqThread) Ctx() *sim.Ctx { return t.ctx }

// ID returns the simulated core id.
func (t *seqThread) ID() int { return t.ctx.ID() }

// Stamp returns the core clock, the serialization stamp of the most
// recently committed atomic block on simulator backends.
func (t *seqThread) Stamp() uint64 { return t.ctx.Clock() }

func (t *seqThread) Atomic(body func(tm.Txn) error) error {
	t.in = true
	defer func() {
		t.in = false
		t.ctx.Telem().Inc(telemetry.Commits)
		t.ctx.NoteCommit()
	}()
	return body(t)
}

func (t *seqThread) Load(addr uint64) uint64      { return t.ctx.Load(addr) }
func (t *seqThread) Store(addr, val uint64)       { t.ctx.Store(addr, val) }
func (t *seqThread) LoadObj(b, off uint64) uint64 { return t.ctx.Load(b + off) }
func (t *seqThread) StoreObj(b, off, val uint64)  { t.ctx.Store(b+off, val) }

func (t *seqThread) OrElse(...func(tm.Txn) error) error {
	panic("locksync: orElse requires a transactional system")
}
func (t *seqThread) Retry() { panic("locksync: retry requires a transactional system") }
func (t *seqThread) Abort() { panic("locksync: abort requires a transactional system") }

// Exec charges application compute to the simulated clock.
func (t *seqThread) Exec(n uint64) { t.ctx.Exec(n) }

// Alloc reserves memory for a new object.
func (t *seqThread) Alloc(size, align uint64) uint64 { return t.ctx.Alloc(size, align) }

// StoreInit initialises not-yet-published memory.
func (t *seqThread) StoreInit(addr, val uint64) { t.ctx.Store(addr, val) }
