// Package native is the host-goroutine STM backend: real threads, real
// memory, real time. It runs the same tm.Engine as the simulator schemes —
// closed nesting with partial rollback, retry/orElse, explicit abort, and
// the retry-budget irrevocable escalation ladder — over a TL2-style
// protocol (global version clock, per-stripe versioned write-locks,
// commit-time lock acquisition, read-set revalidation) so the reproduction
// can report multicore throughput in transactions per second beside
// simulated cycles.
//
// The simulator remains the conformance oracle: the differential suite in
// internal/workloads runs identical workload cells on both backends and
// checks the native backend commits exactly the states the simulator does.
//
// # Commit protocol invariants (TL2)
//
//  1. The global clock only holds even values; odd stripe words are
//     write-locks (owner<<1 | 1), even stripe words are commit versions.
//  2. A transactional read is consistent iff the stripe version is even,
//     unchanged across the data load, and <= the transaction's read
//     version rv. Reads are therefore valid the moment they happen; a
//     read-only transaction needs no commit-time validation.
//  3. Writers buffer updates, then acquire the write-set stripes in
//     ascending index order (no lock-order cycles), take wv from the
//     clock, revalidate the read set (a stripe the committer itself
//     locked validates against its pre-lock version), publish the
//     buffered values, and release every stripe to wv.
//  4. wv is the transaction's serialization stamp: any transaction that
//     observes its effects reads stripe versions >= wv and so has rv >=
//     wv. Committed-op logs sorted by stamp replay the run serially.
//  5. An escalated (irrevocable) transaction holds the serial lock
//     exclusively — every revocable attempt runs under the shared side —
//     writes eagerly with an undo log (so nesting still rolls back
//     partially), and bumps the stripes it touched at commit so retry
//     waiters observe the change.
//  6. A commit wakes retry waiters only when there are some: a waiter raises
//     System.waiters BEFORE it snapshots the wake channel and checks its
//     stripes, a committer reads it AFTER storing its stripe releases, so
//     one of them sees the other (the full argument is in DESIGN.md).
package native

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// stripeShift maps addresses to stripes at cache-line granularity: words
// on one 64-byte line share a versioned write-lock, as the paper's
// unmanaged-environment record table does (bits 6..).
const stripeShift = 6

// stripe is one versioned write-lock, padded to a cache line so adjacent
// stripes never false-share under real coherence traffic.
type stripe struct {
	v atomic.Uint64
	_ [7]uint64
}

// Config parameterises one native System.
type Config struct {
	// TM carries the shared knobs. Granularity is advisory here: conflict
	// detection is always per 64-byte stripe (object and line granularity
	// coincide). ValidateEvery is ignored — TL2 reads are validated the
	// moment they happen, so there is nothing for a periodic pass to add.
	// Progress.RetryBudget arms the escalation ladder; Progress.Token is a
	// simulated-memory construct and is ignored (the native ladder is the
	// serial RWMutex).
	TM tm.Config
	// Threads is the number of Thread handles the system will hand out
	// (sizes the per-thread accounting blocks).
	Threads int
	// ArenaBytes sizes the transactional allocation arena carved out of
	// the address space at creation; 0 means 4 MiB. Transactions must
	// allocate only from this arena (Txn.Alloc), never via mem.Alloc,
	// so the page table cannot grow — and race — during a run.
	ArenaBytes uint64
	// Stripes is the size of the versioned-write-lock table; 0 means
	// 1<<14. Must be a power of two.
	Stripes int
	// Chaos arms the native fault-injection plane (off when zero). See
	// ChaosSpec and ParseChaosSpec for the spec grammar.
	Chaos ChaosSpec
	// Watchdog configures the host watchdog plane; zero fields take the
	// defaults documented on Watchdog. The bounded waitForChange deadline
	// is always in force, the scanner only after StartWatchdog.
	Watchdog Watchdog
}

// System is one native TL2 instance over a memory. Field order is the
// layout rule of DESIGN.md: what every Load reads and nothing writes after
// New comes first, clock and arenaNext get a cache line each, and what only
// the ladder, retry waiters and the watchdog write comes last.
type System struct {
	m        *mem.Memory
	stripes  []stripe
	mask     uint64
	arenaEnd uint64
	armed    bool
	// failed holds the first watchdog violation (see watchdog.go).
	failed  atomic.Pointer[NativeProgressViolation]
	stats   *telemetry.Machine
	threads []*Thread
	cfg     Config

	_         linePad
	clock     atomic.Uint64 // global version clock, always even
	_         linePad
	arenaNext atomic.Uint64
	_         linePad

	// serial is the escalation ladder: revocable attempts run under the
	// shared side, an escalated transaction takes the exclusive side and
	// so drains and excludes every other attempt. Only used when armed.
	serial sync.RWMutex

	// waiters/wakeMu/wakeCh implement Txn.Retry wakeup as a generation
	// channel: a commit that finds a waiter (invariant 6) closes the current
	// channel and installs a fresh one. Unlike a sync.Cond this supports the
	// bounded wake deadline.
	waiters atomic.Int32
	wakeMu  sync.Mutex
	wakeCh  chan struct{}

	wdStop chan struct{}
	wdDone chan struct{}
}

// linePad either side of an 8-byte word keeps every other field off its
// cache line, whatever 8-byte alignment the struct lands on.
type linePad [56]byte

// New builds a native system over m. Call after the workload's structures
// are populated: New gives every page of m private backing and reserves
// the allocation arena, so neither the page table nor its backing grows
// once concurrent transactions run.
func New(m *mem.Memory, cfg Config) *System {
	if cfg.Threads <= 0 {
		panic("native: Config.Threads must be positive")
	}
	if cfg.ArenaBytes == 0 {
		cfg.ArenaBytes = 4 << 20
	}
	if cfg.Stripes == 0 {
		cfg.Stripes = 1 << 14
	}
	if cfg.Stripes&(cfg.Stripes-1) != 0 {
		panic(fmt.Sprintf("native: Config.Stripes %d is not a power of two", cfg.Stripes))
	}
	cfg.Watchdog = cfg.Watchdog.withDefaults()
	s := &System{
		m:       m,
		cfg:     cfg,
		stripes: make([]stripe, cfg.Stripes),
		mask:    uint64(cfg.Stripes - 1),
		armed:   cfg.TM.Progress.RetryBudget > 0,
		stats:   telemetry.NewMachine(cfg.Threads),
		threads: make([]*Thread, cfg.Threads),
	}
	s.wakeCh = make(chan struct{})
	m.Materialize()
	arena := m.Preallocate(cfg.ArenaBytes)
	s.arenaNext.Store(arena)
	s.arenaEnd = arena + cfg.ArenaBytes
	return s
}

// Name identifies the scheme.
func (s *System) Name() string { return "native-tl2" }

// Memory returns the backing address space.
func (s *System) Memory() *mem.Memory { return s.m }

// Stats returns the per-thread metrics store.
func (s *System) Stats() *telemetry.Machine { return s.stats }

// Clock returns the current global version (even; 0 before any commit).
func (s *System) Clock() uint64 { return s.clock.Load() }

// Thread returns the handle for goroutine slot id (0 <= id < Threads).
// Handles are cached: calling twice with one id returns the same handle.
// A handle must only ever be used from one goroutine at a time.
func (s *System) Thread(id int) tm.Thread {
	if id < 0 || id >= len(s.threads) {
		panic(fmt.Sprintf("native: thread id %d out of range [0,%d)", id, len(s.threads)))
	}
	if s.threads[id] == nil {
		t := &Thread{
			sys:      s,
			id:       id,
			lockWord: uint64(id)<<1 | 1,
			tb:       s.stats.Block(id),
			windex:   newWriteIndex(),
		}
		t.Bind(t, nil, t.tb, "", s.cfg.TM.Progress.RetryBudget, s.armed)
		t.boRng = chaosMix(0x626b6f666668a5a5, uint64(id))
		if s.cfg.Chaos.Enabled() {
			t.chaos = newChaosThread(s.cfg.Chaos, id)
		}
		s.threads[id] = t
	}
	return s.threads[id]
}

// stripeIndex maps an address to its versioned-write-lock slot.
func (s *System) stripeIndex(addr uint64) int {
	return int((addr >> stripeShift) & s.mask)
}

// alloc carves a transactional allocation out of the arena with an atomic
// bump; concurrency-safe. Exhaustion raises an arenaExhausted panic that
// the enclosing Atomic's containment turns into ErrArenaExhausted.
func (s *System) alloc(size, align uint64) uint64 {
	if align < mem.WordSize {
		align = mem.WordSize
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("native: alignment %d is not a power of two", align))
	}
	if size == 0 {
		size = mem.WordSize
	}
	for {
		cur := s.arenaNext.Load()
		addr := (cur + align - 1) &^ (align - 1)
		next := addr + ((size + mem.WordSize - 1) &^ (mem.WordSize - 1))
		if next > s.arenaEnd {
			panic(arenaExhausted{need: size, arena: s.cfg.ArenaBytes})
		}
		if s.arenaNext.CompareAndSwap(cur, next) {
			return addr
		}
	}
}

// notifyCommit wakes the retry waiters, if there are any, to re-check their
// watch sets by retiring the current wake-channel generation. Callers have
// already stored what the waiters are to observe (invariant 6).
func (s *System) notifyCommit() {
	if s.waiters.Load() == 0 {
		return
	}
	s.wakeMu.Lock()
	close(s.wakeCh)
	s.wakeCh = make(chan struct{})
	s.wakeMu.Unlock()
}

// waitForChange blocks until some watched stripe's word differs from the
// version recorded when it was read (a new version, or a write-lock in
// flight). The wait is bounded by the watchdog's WakeDeadline: a waiter
// that sees no notification within the deadline re-validates the watch
// set and re-arms (counted in telemetry as a wakeup timeout), so a lost
// or delayed wakeup degrades to a re-check instead of a permanent hang.
// A transaction that called Retry without reading anything has an empty
// watch set and, absent a watchdog trip, re-checks forever — nothing
// could legitimately wake it, the same deadlock the simulator backends
// exhibit.
func (s *System) waitForChange(t *Thread, watch []readEntry) {
	changed := func() bool {
		for _, e := range watch {
			if s.stripes[e.ix].v.Load() != e.ver {
				return true
			}
		}
		return false
	}
	s.waiters.Add(1) // before the first snapshot and check: invariant 6
	defer s.waiters.Add(-1)
	deadline := s.cfg.Watchdog.WakeDeadline
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for {
		s.wakeMu.Lock()
		ch := s.wakeCh
		s.wakeMu.Unlock()
		if s.failed.Load() != nil {
			panic(stopSignal{})
		}
		if changed() {
			return
		}
		select {
		case <-ch:
			if t.chaos != nil && t.chaos.wakeDelay() {
				t.tb.Inc(telemetry.ChaosInjected)
			}
		case <-timer.C:
			t.tb.Inc(telemetry.WakeupTimeouts)
			timer.Reset(deadline)
		}
	}
}
