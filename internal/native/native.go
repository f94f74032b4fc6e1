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
//     and runs the same buffered path and commit: with every other attempt
//     drained no stripe is locked and nothing else commits, so its commit
//     cannot fail. No transaction's write reaches memory before its commit.
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

// numStripes sizes the versioned-write-lock table (a power of two).
const numStripes = 1 << 14

// stripe is one versioned write-lock word. The table is dense, as in TL2:
// eight stripes share a host cache line (DESIGN.md §4, "Layout rule").
type stripe struct {
	v atomic.Uint64
}

// Config parameterises one native System.
type Config struct {
	// RetryBudget arms the escalation ladder (the serial RWMutex) after this
	// many failed attempts of one transaction; 0 disables it.
	RetryBudget int
	// Threads is the number of Thread handles the system will hand out
	// (sizes the per-thread accounting blocks).
	Threads int
	// ArenaBytes sizes the transactional allocation arena reserved in the
	// address space at creation; 0 means 4 MiB. Transactions must allocate
	// only from this arena (Txn.Alloc), never via mem.Alloc, so the page
	// table cannot grow — and race — during a run. Each thread takes the
	// arena a 64 KiB chunk at a time and gets host memory only for the
	// chunks it takes, so exhaustion can come up to one partly used chunk
	// per thread before ArenaBytes are handed out.
	ArenaBytes uint64
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
// New comes first, clock and arenaNext (written once per arena chunk) get a
// cache line each, and what only the ladder, retry waiters and the watchdog
// write comes last.
type System struct {
	m        *mem.Memory
	stripes  []stripe
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
// are populated: New gives every populated page private backing and reserves
// the allocation arena, so the page table never grows once concurrent
// transactions run and the only backing added is the arena chunks threads
// take (Thread.Alloc).
func New(m *mem.Memory, cfg Config) *System {
	if cfg.Threads <= 0 {
		panic("native: Config.Threads must be positive")
	}
	if cfg.ArenaBytes == 0 {
		cfg.ArenaBytes = 4 << 20
	}
	cfg.Watchdog = cfg.Watchdog.withDefaults()
	s := &System{
		m:       m,
		cfg:     cfg,
		stripes: make([]stripe, numStripes),
		armed:   cfg.RetryBudget > 0,
		stats:   telemetry.NewMachine(cfg.Threads),
		threads: make([]*Thread, cfg.Threads),
	}
	s.wakeCh = make(chan struct{})
	m.Materialize()
	arena := m.Reserve(cfg.ArenaBytes)
	s.arenaNext.Store(arena)
	s.arenaEnd = arena + cfg.ArenaBytes
	return s
}

// Name identifies the scheme.
func (s *System) Name() string { return "native-tl2" }

// Stats returns the per-thread metrics store.
func (s *System) Stats() *telemetry.Machine { return s.stats }

// A thread's logs start at these capacities, which hold the read and write
// sets of a BST operation and of a hashtable lookup on short chains (a
// B-tree split writes tens of words; a long chain reads hundreds). A log
// grows by doubling up to the largest set its thread meets, and under
// contention which thread meets which set is host timing.
const (
	readLogCap  = 64
	writeLogCap = 4
)

// Thread returns the handle for goroutine slot id (0 <= id < Threads).
// Handles are cached: calling twice with one id returns the same handle.
// A handle must only ever be used from one goroutine at a time.
func (s *System) Thread(id int) tm.Thread {
	if id < 0 || id >= len(s.threads) {
		panic(fmt.Sprintf("native: thread id %d out of range [0,%d)", id, len(s.threads)))
	}
	if s.threads[id] == nil {
		t := &Thread{
			sys:        s,
			id:         id,
			lockWord:   uint64(id)<<1 | 1,
			tb:         s.stats.Block(id),
			reads:      make([]readEntry, 0, readLogCap),
			writes:     make([]writeEntry, 0, writeLogCap),
			windex:     newWriteIndex(),
			stripeIdxs: make([]int, 0, writeLogCap),
			owned:      make([]readEntry, 0, writeLogCap),
		}
		t.Bind(t, nil, t.tb, "", s.cfg.RetryBudget, s.armed)
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
	return int((addr >> stripeShift) & (numStripes - 1))
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
