// Package sim is the multi-core machine simulator that stands in for the
// paper's "accurate multi-core IA32 simulator".
//
// Each simulated core runs a Go function (its program) against a shared
// simulated address space through a Ctx. A conservative scheduler serialises
// every architectural operation in global cycle order: the core with the
// smallest local clock executes the next operation (ties broken by core id),
// so runs are deterministic and the interleaving IS the timing model.
//
// Each core program is a coroutine (iter.Pull), so core programs run
// strictly one at a time — Ctx methods may only be called from the
// program's own coroutine, and a program that blocks in host code blocks
// the whole machine. Whoever holds the grant passes it on (Machine.handoff):
// a core that needs an operation it holds no grant for (Ctx.acquire)
// requeues itself, picks the next core and switches straight to it, and a
// program's return lands in the core that entered it, which picks in turn.
// The Run goroutine only starts the machine and sees the last return.
//
// There is one such transport and two pick policies over it. The reference
// policy (Config.ReferenceScheduler) scans for the min-clock core and grants
// it exactly one operation. The default grant-lease policy instead grants
// the min-clock core a *lease*: the right to execute operations inline for
// as long as its pre-operation (clock, id) stays below the horizon (the
// (clock, id) minimum of the other runnable cores, kept in one min-heap).
// Below the horizon this core is the minimum, so the serial scheduler would
// have granted it every one of those operations anyway — a clock tie
// included, when this core's id is the lower. Grant order — and
// therefore every simulated result — is identical under both; only the
// number of leases changes. A single runnable core (every 1-core cell, and
// the tail of every multi-core run) executes with zero handoffs.
//
// Two kinds of operation take no lease of their own either: they are due
// operations, which pick runs inline as grants while their core is parked
// in the run queue at the due one's key. A spin-wait (Ctx.SpinUntil) parks
// its core, and pick runs each due poll or step, waking the core only for
// the poll that ends the spin. A Store whose core holds no lease is posted
// (Ctx.Store): the core runs on until it needs a result, and pick retires
// the store, with the Execs posted after it.
//
// Only operations on shared state need that order. Exec is core-private —
// it adds to this core's clock and cycle counters and nothing else — so a
// core without a lease absorbs it with no grant: absorbing it early only
// moves the core to the clock it would have reached anyway, and every
// shared operation is still granted at the same (pre-operation clock, id)
// key. The corollary for harness authors: host code after an Exec (or a
// posted Store) runs at the position of the last operation that returned a
// result, so poll host state another core writes inside a Step with a
// granted operation (as the harness barrier does), never with Exec.
//
// The watchdogs (Config.WatchdogWindow, CycleBudget) ride the same path.
// Together they are one clock threshold, Machine.checkAt: the first clock
// at which a grant could trip one, given the commits published so far (or,
// with only the host stall monitor armed, must beat its heartbeat). A
// lease's horizon never passes it, a lease that a Clock's wait hands back
// past it is given up, and a core runs nothing ahead of its grant — no
// absorbed Exec, posted op or early completion — at or past it, so every
// check runs at the (clock, id) position the reference scheduler gives it. Only a fault hook and the reference scheduler grant every
// operation (Machine.perOpDuties).
//
// The hot-path contract: an operation of a leased core that hits its L1
// runs as inline code with one call, the cache access, while a fault hook
// or the reference scheduler takes the out-of-line path (acquireSlow,
// noteRecent, execSlow); scripts/ci.sh inline holds the inline half.
//
// The Ctx exposes ordinary loads/stores/CAS, an Exec(n) charge for ALU
// work, and the paper's six ISA extensions (loadsetmark, loadresetmark,
// loadtestmark, resetmarkall, resetmarkcounter, readmarkcounter) over the
// mark bits kept by the cache model. A machine can also be configured with
// the Section 3.3 *default implementation*, which marks nothing and bumps
// the mark counter on every loadsetmark — functionally correct, no speedup.
package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hastm.dev/hastm/internal/cache"
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/telemetry"
)

// Latencies is the additive timing model, in cycles.
type Latencies struct {
	ALU    uint64 // one arithmetic/branch instruction
	L1Hit  uint64
	L2Hit  uint64
	Mem    uint64
	CAS    uint64 // extra cost of the atomic read-modify-write beyond the access
	StoreQ uint64 // extra cost of loadsetmark consuming a store-queue entry
	// HTMTrack and HTMSpecStore are the hardware-TM baseline's per-access
	// costs: read/write-set tracking on every transactional access, plus
	// the speculative write buffering of a transactional store. The 2006
	// HTM proposals the paper compares against buffer updates in
	// dedicated structures whose management is not free; these two knobs
	// calibrate that cost (they do not affect STM or HASTM).
	HTMTrack     uint64
	HTMSpecStore uint64
	// TestMarkBranch models the paper's §7.3 observation: the conditional
	// branch after loadtestmark resolves late because it depends on the
	// immediately preceding load, so every loadtestmark pays this on top.
	TestMarkBranch uint64
	RingTransition uint64 // cost of a simulated interrupt / OS transition
}

// DefaultLatencies returns the timing model used by all experiments. L1
// hits cost one cycle: the paper notes (§7.3) that the STM's barrier
// sequences are friendly to out-of-order execution — independent cached
// loads overlap — so an additive model must charge their throughput cost,
// not their full latency. The loadtestmark-dependent branch, which the
// paper singles out as resolving late, pays TestMarkBranch on top.
func DefaultLatencies() Latencies {
	return Latencies{
		ALU:            1,
		L1Hit:          1,
		L2Hit:          14,
		Mem:            200,
		CAS:            6,
		StoreQ:         0, // occupies a store-queue slot; throughput-neutral
		TestMarkBranch: 2,
		RingTransition: 500,
		HTMTrack:       3,
		HTMSpecStore:   4,
	}
}

// Config describes a machine.
type Config struct {
	Cores int
	L1    cache.Config
	L2    cache.Config
	Lat   Latencies

	// DefaultISA selects the Section 3.3 default implementation of the
	// mark-bit instructions (no marking; loadsetmark and resetmarkall
	// increment the mark counter). Software runs correctly, unaccelerated.
	DefaultISA bool

	// Prefetch enables the next-line L1 prefetcher (a source of the
	// destructive interference discussed in §7.4).
	Prefetch bool

	// ThreadsPerCore groups hardware threads onto shared L1s (SMT, §3.1:
	// each thread keeps its own mark bits; stores by one thread invalidate
	// the siblings' marks). 0 or 1 disables SMT.
	ThreadsPerCore int

	// SpecRFOEvery, if non-zero, makes each core issue one speculative
	// read-for-ownership request (a mispredicted-path store prefetch)
	// every so many demand accesses, aimed at a recently accessed line.
	// On a shared data structure those lines are hot in other cores too,
	// so the request invalidates — and unmarks — their copies: §7.4's
	// "significant spurious aborts in a modern OOO processor", which "are
	// not directly related to the transaction size". An RFO reaches only
	// other L1s, so a machine with one L1 (one core, or SMT threads that
	// share it) issues none: it would change nothing.
	SpecRFOEvery uint64

	// ReferenceScheduler selects the original per-operation pick policy (a
	// lease of length one per architectural op) instead of the grant-lease
	// policy. Both ride the same coroutine transport and produce
	// byte-identical simulated results — the differential test suite
	// proves it — so this switch exists as the executable specification the
	// fast path is checked against, not as a user-facing mode.
	ReferenceScheduler bool

	// WatchdogWindow, if non-zero, arms the commit-progress watchdog: when
	// no core publishes a commit for this many simulated cycles, the run
	// fails with a structured ProgressViolation instead of spinning
	// forever. The first operation whose (clock, id) key starts more than
	// the window after the last commit keyed before it trips, under every
	// scheduler, so the trip is deterministic. Arming it costs the lease
	// scheduler nothing until a core's clock reaches the threshold.
	WatchdogWindow uint64

	// CycleBudget, if non-zero, is a hard cap on any core's simulated
	// clock: the first operation starting beyond it, in (clock, id) order,
	// fails the run with a ProgressViolation. A backstop against runaway
	// cells; like the window, a clock threshold the lease path checks only
	// where it is crossed.
	CycleBudget uint64

	// StallTimeout, if non-zero, arms the host-side deadlock detector: if
	// the machine's heartbeat — raised by each lease, each published commit
	// and each threshold check — stays still for this much host (wall)
	// time, the run is declared stalled — the granted core is blocked in
	// host code — and fails with a ProgressViolation instead of hanging.
	// A core that runs without committing reaches a threshold check within
	// WatchdogWindow cycles or, with no window, within 2¹⁶ cycles, so pair
	// it with a window the host covers well inside the timeout. This is
	// the only watchdog keyed to host time, so it fires only on true host
	// deadlocks, never at a simulated-cycle-deterministic point.
	StallTimeout time.Duration
}

// DefaultConfig returns the quad-core configuration modelled on the paper's
// simulated machine: 32 KB 8-way L1s, shared 512 KB 8-way inclusive L2.
func DefaultConfig(cores int) Config {
	return Config{
		Cores: cores,
		L1:    cache.Config{SizeBytes: 32 << 10, Assoc: 8},
		L2:    cache.Config{SizeBytes: 512 << 10, Assoc: 8},
		Lat:   DefaultLatencies(),
	}
}

// markCounterMax saturates the per-thread mark counter: it is 16 bits wide.
const markCounterMax = 1<<16 - 1

// Validate checks the configuration without building a machine, so a
// caller handed one from outside the program (hastm.NewMachine) can surface
// a clear error instead of a construction panic: the cores must be
// positive and within the directory's reach, and both cache levels must
// have power-of-two geometry.
func (cfg Config) Validate() error {
	if cfg.Cores <= 0 {
		return fmt.Errorf("sim: Config.Cores must be positive, got %d", cfg.Cores)
	}
	return cfg.hierarchy().Validate()
}

// hierarchy is the cache configuration of the machine cfg describes.
func (cfg Config) hierarchy() cache.HierarchyConfig {
	return cache.HierarchyConfig{
		Cores:          cfg.Cores,
		ThreadsPerCore: cfg.ThreadsPerCore,
		L1:             cfg.L1,
		L2:             cfg.L2,
		Prefetch:       cfg.Prefetch,
	}
}

// Program is the code one core runs.
type Program func(*Ctx)

// Machine is one simulated multi-core system.
type Machine struct {
	cfg    Config
	Mem    *mem.Memory
	Caches *cache.Hierarchy
	Stats  *telemetry.Machine

	cores    []*Ctx
	sched    SchedCounters
	txnTrace *telemetry.TraceBuffer
	fault    FaultHook

	// perOpDuties, fixed at Run, is true when every operation — Exec
	// included — must be individually granted: a fault hook is installed
	// (its OnGrant schedule is defined per grant), or this is the reference
	// scheduler. It is the one branch a leased core pays on the hot path.
	perOpDuties bool

	// rfo is true when cores issue speculative RFOs: Config.SpecRFOEvery
	// is set and the machine has more than one L1 for an RFO to reach.
	rfo bool

	// ran, set by Run, refuses a second run; failed (progress.go) sits
	// beside the flags, as granted sits beside faultsMu, so that no field
	// pads a word of its own.
	ran    bool
	failed atomic.Bool

	// Progress-guarantee state (see progress.go). checkAt is the least
	// clock at which a granted operation could trip a watchdog, given
	// lastCommit, or must beat for the stall monitor (setCheckAt): a lease
	// ends there, and nothing runs ahead of its grant there (^0 with no
	// watchdog armed).
	violation  *ProgressViolation // written once, under the grant (or by Run on stall)
	lastCommit uint64             // clock of the latest published commit; grant-holder only
	checkAt    uint64
	beat       atomic.Uint64 // heartbeat for the host stall monitor
	granted    atomic.Int32  // core last leased, for the stall report
	faultsMu   sync.Mutex
	faults     []CoreFault

	// The lease policy's run queue (see pick and requeue): one (clock, id)
	// min-heap of the runnable cores. Unused by the reference policy, which
	// scans the cores.
	runq schedHeap
}

// SchedCounters is the scheduler's observability block: how many
// architectural operations ran, how many leases they were granted under and
// how many coroutine switches those leases cost the host. All are pure
// functions of the simulated schedule, so they are deterministic for a
// given configuration — but Leases and Switches differ by design between
// the lease and reference schedulers, which is why they live here and not
// in the telemetry counter blocks the differential suite compares.
type SchedCounters struct {
	// Grants counts architectural operations, including the one completion
	// grant each program consumes to report termination. An Exec counts
	// whether or not it had to be granted, and a due operation that pick
	// runs inline counts too, so Grants is the same under every scheduler.
	Grants uint64
	// Leases counts pick decisions that lease a core. Under the reference
	// scheduler every grant is its own lease of length one; under the
	// grant-lease scheduler one lease covers a maximal run of consecutive
	// grants to the same core plus the Execs that follow it, and a due
	// operation (a parked spin's poll or step, a posted store) is a grant,
	// not a lease.
	Leases uint64
	// Switches counts coroutine switches: every next, every yield and every
	// program return. A lease that re-picks the core already running costs
	// none, and one that enters a core costs its next plus, later, the
	// yield or return that leaves it, so Switches ≤ 2·Leases.
	Switches uint64
}

// HandoffsAvoided returns how many grants executed inline under a lease —
// or, for a core-private Exec or a due operation, under no lease at all —
// without a lease of their own.
func (s SchedCounters) HandoffsAvoided() uint64 { return s.Grants - s.Leases }

// Sched returns the scheduler counters. Stable only after Run returns.
func (m *Machine) Sched() SchedCounters { return m.sched }

// FaultHook observes every scheduler grant and may perturb the machine —
// suspend the granted core, evict or back-invalidate cache lines, doom a
// hardware transaction. OnGrant runs on the granted core's coroutine while
// it holds the grant, so the hook has exclusive access to all machine
// state and fires at a deterministic point of the global operation order.
type FaultHook interface {
	OnGrant(c *Ctx)
}

// SetFaultHook installs (or, with nil, removes) the machine's fault hook.
// Must be called before Run.
func (m *Machine) SetFaultHook(h FaultHook) {
	if m.ran {
		panic("sim: SetFaultHook after Run")
	}
	m.fault = h
}

// New builds a machine. The returned machine's Mem can be used directly
// (at zero simulated cost) to populate data structures before Run, matching
// the paper's "all the data structures were populated before the
// experimental run".
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		cfg:    cfg,
		Mem:    mem.New(),
		Caches: cache.New(cfg.hierarchy()),
		Stats:  telemetry.NewMachine(cfg.Cores),
	}
	m.rfo = cfg.SpecRFOEvery > 0 && m.Caches.L1Groups() > 1
	m.setCheckAt(0)
	for i := 0; i < cfg.Cores; i++ {
		m.cores = append(m.cores, &Ctx{
			m:        m,
			id:       i,
			cat:      telemetry.App,
			telem:    m.Stats.Block(i),
			commitAt: noCommit,
		})
	}
	m.Caches.AddDropListener(markDropper{m})
	return m
}

// markDropper increments a core's saturating mark counter whenever one of
// its marked lines leaves the cache — the architected behaviour of §3.
type markDropper struct{ m *Machine }

func (d markDropper) LineDropped(core int, lineAddr uint64, marks cache.MarkMasks, reason cache.DropReason, byCore int) {
	for plane, mask := range marks {
		if mask != 0 {
			d.m.cores[core].bumpMarkCounter(plane)
		}
	}
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Core returns core i's context (for registering listeners or inspecting
// clocks after a run).
func (m *Machine) Core(i int) *Ctx { return m.cores[i] }

// Run executes one program per core (programs beyond Config.Cores are
// rejected; cores without a program stay idle) and returns the simulated
// wall-clock time: the largest core-local clock at completion.
func (m *Machine) Run(progs ...Program) uint64 {
	if m.ran {
		panic("sim: Machine.Run called twice; build a fresh machine per run")
	}
	m.ran = true
	m.perOpDuties = m.fault != nil || m.cfg.ReferenceScheduler
	if len(progs) > m.cfg.Cores {
		panic(fmt.Sprintf("sim: %d programs for %d cores", len(progs), m.cfg.Cores))
	}
	if !m.cfg.ReferenceScheduler {
		m.runq.e = make([]heapEntry, 0, m.cfg.Cores) // room for every core: no push reallocates
	}
	for i, p := range progs {
		if p != nil {
			m.cores[i].start(p)
			m.requeue(m.cores[i])
		}
	}

	if m.cfg.StallTimeout == 0 {
		m.handoff(nil)
	} else if !m.driveWatched() {
		// The granted core is blocked in host code; core clocks are not
		// safely readable. The violation report carries the snapshot.
		return 0
	}
	var wall uint64
	for _, c := range m.cores {
		if c.clock > wall {
			wall = c.clock
		}
	}
	return wall
}

// handoff passes the grant on from self, whose lease has ended: it requeues
// self, picks the next core and switches straight to it, and returns once
// self holds a lease again. self == nil is the Run goroutine, which starts
// the machine and returns once every program has finished.
//
// The coroutines form a chain: each next pushes the entered core onto it,
// each yield or program return pops one. A picked core that is not on the
// chain is entered with its next; one lower on the chain — parked inside a
// next of its own — is reached by yielding, and every core the yield
// resumes that is not the one picked yields on. A program's return lands in
// the core that entered it, which marks it done and picks. So only the
// goroutine holding the grant ever calls a next, and a core's yield is
// called only by its own coroutine, as iter.Pull requires. Every next
// follows a lease of its own and every other switch pops a next, so
// Switches ≤ 2·Leases.
func (m *Machine) handoff(self *Ctx) {
	if self != nil {
		m.requeue(self)
	}
	for {
		c := m.pick()
		switch {
		case c == self: // the same core again, or (nil) every program returned
			return
		case c.entered:
			m.sched.Switches++
			self.yield(struct{}{})
			return
		}
		c.entered = true
		m.sched.Switches++
		_, live := c.next()
		c.entered = false
		if !live {
			m.sched.Switches++
			c.done = true
			continue
		}
		// c yielded: the grant went down the chain, to self or below it.
		if !self.leased {
			m.sched.Switches++
			self.yield(struct{}{})
		}
		return
	}
}

// pick chooses the core the grant goes to next and leases it — nil when no
// core is runnable. The reference policy scans for the min-clock core (ties
// to the lowest id) and leases it with the zero horizon, so release always
// ends it: a lease of length one. The lease policy pops the (clock, id)-least
// core, running a parked core's due operations inline until one pops that
// may run itself; its horizon is the least entry left, idleEntry when it
// runs alone (see Ctx.release), or the watchdog threshold if that comes
// first. No other core's clock changes while the lease is out, so the
// horizon is exact, and a core that stays below it is the one the
// reference scan would have picked — a clock tie stays with the lower id,
// as in its scan.
func (m *Machine) pick() *Ctx {
	var c *Ctx
	var horizon heapEntry
	if m.cfg.ReferenceScheduler {
		for _, k := range m.cores {
			if k.next != nil && !k.done && (c == nil || k.clock < c.clock) {
				c = k
			}
		}
	} else if m.runq.len() > 0 {
		c = m.cores[m.runq.pop().id]
		for c.parked() && !c.dueOp() {
			// A core still parked and still ahead of the queue would be
			// popped straight back: it runs its next due operation now.
			if !c.parked() || !c.key().less(m.runq.min()) {
				m.requeue(c)
				c = m.cores[m.runq.pop().id]
			}
		}
		horizon = m.leaseHorizon()
	}
	if c == nil {
		return nil
	}
	m.sched.Leases++
	c.horizon, c.leased = horizon, true
	if m.cfg.StallTimeout > 0 {
		m.granted.Store(int32(c.id))
		m.beat.Add(1)
	}
	return c
}

// leaseHorizon is the horizon of a lease issued now: the least runnable
// core's key, or the watchdog threshold if that comes first.
func (m *Machine) leaseHorizon() heapEntry {
	if h := m.runq.min(); h.clock < m.checkAt {
		return h
	}
	return heapEntry{clock: m.checkAt}
}

// requeue puts c, whose lease has ended, back in the lease policy's run
// queue; the reference policy's scan needs no queue.
func (m *Machine) requeue(c *Ctx) {
	if !m.cfg.ReferenceScheduler {
		m.runq.push(c.key())
	}
}

// heapEntry is one runnable core in the lease scheduler's run queue. The
// clock is a snapshot taken at requeue; it cannot go stale because a
// core's clock only advances while the core holds the grant, and a core in
// the heap does not.
type heapEntry struct {
	clock uint64
	id    int
}

// idleEntry sorts after every runnable core: the horizon of a core running
// alone.
var idleEntry = heapEntry{clock: ^uint64(0), id: int(^uint(0) >> 1)}

func (a heapEntry) less(b heapEntry) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.id < b.id)
}

// schedHeap is a hand-rolled binary min-heap on (clock, id). It replaces
// the reference scheduler's O(cores) scan per grant with O(log cores) sift
// steps and never allocates: Run gives it room for every core. work counts
// the sift steps, for tests.
type schedHeap struct {
	e    []heapEntry
	work uint64
}

func (h *schedHeap) len() int { return len(h.e) }

// min returns the least entry, or idleEntry when the heap is empty.
func (h *schedHeap) min() heapEntry {
	if len(h.e) == 0 {
		return idleEntry
	}
	return h.e[0]
}

func (h *schedHeap) push(x heapEntry) {
	h.e = append(h.e, x)
	i := len(h.e) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.e[i].less(h.e[parent]) {
			break
		}
		h.e[i], h.e[parent] = h.e[parent], h.e[i]
		h.work++
		i = parent
	}
}

func (h *schedHeap) pop() heapEntry {
	top := h.e[0]
	last := len(h.e) - 1
	h.e[0] = h.e[last]
	h.e = h.e[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.e[l].less(h.e[smallest]) {
			smallest = l
		}
		if r < last && h.e[r].less(h.e[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.e[i], h.e[smallest] = h.e[smallest], h.e[i]
		h.work++
		i = smallest
	}
	return top
}

// Ctx is one core's architectural interface. All methods must be called
// only from that core's program coroutine.
type Ctx struct {
	m     *Machine
	id    int
	clock uint64

	// The coroutine transport (see Machine.handoff): the grant holder
	// enters the program with next, the program leaves with yield or by
	// returning.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// Lease state. leased is true while this core holds a grant it may
	// extend inline; horizon is the (clock, id) minimum of the other
	// runnable cores, capped at the watchdog threshold; pick sets both when
	// it issues the lease. Under the reference scheduler horizon stays
	// zero, so release always hands back.
	// Beside them, in what would be padding, the chain state handoff
	// reads — entered is true while a next of this core's is in progress,
	// done once its program has returned — and the due-operation state
	// (see dueOp): spinning is true while pick runs this core's spin
	// inline, and spinPoll says its due operation is a poll of spinAddr
	// rather than the ALU step; posts[postHead:postLen] are the core's
	// posted stores and the Execs posted after them, oldest first.
	leased             bool
	entered            bool
	done               bool
	spinning, spinPoll bool
	postHead, postLen  uint8
	horizon            heapEntry

	markCounter [cache.NumMarkPlanes]uint64

	// Wrong-path RFO state: a small ring of recently accessed line
	// numbers (address / mem.LineSize, below 2³² as mem.AddrLimit is 2³⁸)
	// and a deterministic jitter source.
	recent     [16]uint32
	recentPos  int
	accessTick uint64
	rfoRng     uint64

	cat   telemetry.Category
	telem *telemetry.Block

	// Progress-reporting state (see progress.go). NoteCommit and SetStatus
	// run in host code; they publish at once when the key of the core's
	// next operation is below every check still to come, and otherwise
	// leave the pending fields for the core's next grant (publish).
	// Watchdog snapshots read the published fields.
	commits        uint64 // core-local commit count (host-side)
	pendingLabel   string
	pubCommits     uint64 // published
	statLabel      string
	pendingAttempt int32
	statAttempt    int32
	pendingCommit  bool
	statusDirty    bool

	// The rest of the due-operation state, packed with the two flags
	// above: postCat holds the category each posted operation charges;
	// commitAt is the post index a commit was noted before, whose clock
	// the posts ahead of it decide (noCommit: none); postBound caps the
	// clock the posted operations can reach.
	postCat            [postCap]uint8
	commitAt           uint8
	postBound          uint64
	spinAddr, spinWant uint64
	posts              [postCap]postedOp
}

// noCommit is Ctx.commitAt with no commit waiting on the posted operations.
const noCommit = 0xff

// postCap bounds a core's posted operations: the AppendLog shape — three
// stores and an Exec after the Load that ends a lease — and one more. A
// Ctx stays in the 352-byte allocation it had before stores were posted.
const postCap = 5

// postedOp is one posted operation: a store of val to addr, or, with addr
// 0 (never a valid address), an Exec charge of val cycles.
type postedOp struct{ addr, val uint64 }

// ID returns the core number.
func (c *Ctx) ID() int { return c.id }

// Clock returns the core-local cycle count. It is a result, so it first
// waits for the core's posted stores to retire. Each posted operation
// started below the watchdog threshold, but the last may end past it: the
// lease the wait ends in is then given up, as release gives up any lease
// at its horizon, so the core's next operation takes its grant and its
// check.
func (c *Ctx) Clock() uint64 {
	if c.postLen != 0 {
		c.m.handoff(c)
		c.stopIfFailed()
		c.publish()
		c.release()
	}
	return c.clock
}

// Machine returns the owning machine.
func (c *Ctx) Machine() *Machine { return c.m }

// Telem returns this core's accounting block. Only this core's program
// coroutine may write to it (one simulated core, one writer), which is what
// lets the block use plain, non-atomic increments.
func (c *Ctx) Telem() *telemetry.Block { return c.telem }

// SetCat switches the category subsequent cycles are attributed to and
// returns the previous category, enabling the push/pop idiom:
//
//	defer c.SetCat(c.SetCat(telemetry.RdBar))
func (c *Ctx) SetCat(cat telemetry.Category) telemetry.Category {
	old := c.cat
	c.cat = cat
	return old
}

func (c *Ctx) charge(cycles uint64) { c.chargeTo(c.cat, cycles) }

func (c *Ctx) chargeTo(cat telemetry.Category, cycles uint64) {
	c.clock += cycles
	c.telem.Charge(cat, cycles)
}

// acquire obtains the grant for the next architectural operation. Inline,
// it only counts the grant of a core that holds a live lease on a machine
// with no per-operation duty; acquireSlow does the rest.
func (c *Ctx) acquire() {
	if !c.leased || c.m.perOpDuties {
		c.acquireSlow()
		return
	}
	c.m.sched.Grants++
}

// acquireSlow is acquire's out-of-line case: it hands the grant on until a
// pick leases this core again, unless it holds a lease, then runs the
// grant's duties and counts the grant — unless they stopped the core,
// whose operation then never runs.
func (c *Ctx) acquireSlow() {
	if !c.leased {
		c.m.handoff(c)
	}
	c.grantDuties()
	c.m.sched.Grants++
}

// grantDuties runs where this core holds the grant at its own (clock, id)
// position, for the operation about to run: at every grant of a machine
// with per-operation duties, and wherever the lease path stops — after a
// handoff, and for a parked core woken for its due operation. It stops the
// core if the machine has failed, publishes its pending progress, checks
// the watchdogs if the clock has reached their threshold, and runs the
// fault hook. Every check of a watchdog thus runs at the same position of
// the global operation order under every scheduler.
func (c *Ctx) grantDuties() {
	m := c.m
	c.stopIfFailed()
	c.publish()
	if c.clock >= m.checkAt {
		c.checkProgress()
	}
	if h := m.fault; h != nil {
		h.OnGrant(c)
	}
}

// ringTransitionNow is the architectural effect of an OS transition,
// applied while already holding the grant: discard all marks on every
// plane, bump the mark counters, pay the transition cost. Shared by
// RingTransition and fault-hook suspensions.
func (c *Ctx) ringTransitionNow() {
	for plane := 0; plane < cache.NumMarkPlanes; plane++ {
		if !c.m.cfg.DefaultISA {
			c.m.Caches.ClearAllMarks(c.id, plane)
		}
		c.bumpMarkCounter(plane)
	}
	c.charge(c.m.cfg.Lat.RingTransition)
}

// InjectSuspend takes this core through a suspension as a context switch
// would, from inside a FaultHook (the caller already holds the grant): marks
// are discarded, counters bumped, the ring-transition cost paid. The §5
// contract is that this never aborts a transaction — HASTM merely falls
// back to full software validation.
func (c *Ctx) InjectSuspend() { c.ringTransitionNow() }

// release ends the operation. While the post-operation (clock, id) is
// below the horizon entry this core is still the one pick would choose —
// on a clock tie too, when its id is the lower — so the lease extends and
// the next acquire proceeds inline with no host handoff. Otherwise another
// core has caught up and the lease is given up: the next acquire hands the
// grant on. The program's host code (and any core-private Exec) up to that
// acquire still runs before the switch.
func (c *Ctx) release() {
	if !c.key().less(c.horizon) {
		c.leased = false
	}
}

func (c *Ctx) bumpMarkCounter(plane int) {
	if c.markCounter[plane] < markCounterMax {
		c.markCounter[plane]++
	}
}

// noteAccess records a demand access and, at the configured rate, issues
// the speculative RFO — never on a one-L1 machine, where it is inert (see
// Config.SpecRFOEvery). The recently-accessed ring is also maintained when
// a fault hook is installed (it targets evictions/snoops at lines the
// core actually touched); ring upkeep is host-only work and charges
// nothing, so an all-rates-zero fault plane stays timing-neutral. Must be
// called while holding the grant. Only noteRecent, out of line, does work.
func (c *Ctx) noteAccess(addr uint64) {
	if c.m.rfo || c.m.fault != nil {
		c.noteRecent(addr)
	}
}

// noteRecent is noteAccess on a machine that keeps the ring.
func (c *Ctx) noteRecent(addr uint64) {
	c.recent[c.recentPos&15] = uint32(addr / mem.LineSize)
	c.recentPos++
	if !c.m.rfo {
		return
	}
	c.accessTick++
	if c.accessTick < c.m.cfg.SpecRFOEvery {
		return
	}
	c.accessTick = 0
	c.rfoRng = c.rfoRng*6364136223846793005 + uint64(c.id)*2654435761 + 1442695040888963407
	n := c.recentPos
	if n > 16 {
		n = 16
	}
	target := c.recent[(c.rfoRng>>33)%uint64(n)]
	c.m.Caches.SpeculativeRFO(c.id, uint64(target)*mem.LineSize)
}

// RecentLine picks one of this core's recently accessed cache-line
// addresses, selected by sel modulo the ring occupancy; ok is false when
// the core has not accessed anything yet. Fault hooks use it to aim
// evictions and snoops at lines that plausibly carry transaction state.
func (c *Ctx) RecentLine(sel uint64) (line uint64, ok bool) {
	n := c.recentPos
	if n > 16 {
		n = 16
	}
	if n == 0 {
		return 0, false
	}
	return uint64(c.recent[sel%uint64(n)]) * mem.LineSize, true
}

// chargeAccess converts an access outcome into cycles: the L1, the L2 or
// memory served it.
func (m *Machine) chargeAccess(res cache.AccessResult) uint64 {
	switch {
	case res.L1Hit:
		return m.cfg.Lat.L1Hit
	case res.L2Hit:
		return m.cfg.Lat.L2Hit
	}
	return m.cfg.Lat.Mem
}

// Exec charges n ALU instructions. It is core-private: nothing it touches
// is visible to another core, so unless the machine grants every operation
// it takes no grant — it is counted, charged and tested against the
// horizon where it stands, and a core without a lease absorbs it with no
// switch. Behind a posted store it is posted too, and charged when that
// store retires. Shared operations keep their (pre-operation clock, id)
// grant keys, so the simulated schedule is the one that grants every Exec.
// Only an Exec that would start at or past the watchdog threshold takes
// its grant, so a check it may trip runs at the position the reference
// scheduler gives it. Host code after an Exec must not read host state
// another core's Step writes; see Step.
func (c *Ctx) Exec(n uint64) {
	if n == 0 {
		return
	}
	if !c.leased || c.m.perOpDuties {
		c.execSlow(n)
		return
	}
	c.m.sched.Grants++
	c.charge(n * c.m.cfg.Lat.ALU)
	c.release()
}

// execSlow is Exec on a core without a lease, which absorbs it, posts it
// behind its posted stores, or — past the watchdog threshold, or with the
// post queue full — takes its grant, and on a machine that grants every
// operation.
func (c *Ctx) execSlow(n uint64) {
	cycles := n * c.m.cfg.Lat.ALU
	if !c.m.perOpDuties && c.mayRunAhead() {
		if c.postLen == 0 {
			c.m.sched.Grants++
			c.charge(cycles)
			return
		}
		if c.postExec(cycles) {
			c.m.sched.Grants++
			return
		}
	}
	c.acquire()
	c.charge(cycles)
	c.release()
}

// mayRunAhead reports whether this core, holding no lease, may run its next
// operation ahead of its grant — absorb an Exec, post a Store or an Exec,
// complete — because that operation's key is provably below the watchdog
// threshold, so no check still to come is keyed before it. A pending
// progress note waits for the core's next grant instead (see publish).
func (c *Ctx) mayRunAhead() bool {
	if c.pendingCommit || c.statusDirty {
		return false
	}
	if c.postLen == 0 {
		return c.clock < c.m.checkAt
	}
	return c.postBound < c.m.checkAt
}

// Load returns the word at addr.
func (c *Ctx) Load(addr uint64) uint64 {
	c.acquire()
	c.noteAccess(addr)
	res := c.m.Caches.Access(c.id, addr, false)
	v := c.m.Mem.Load(addr)
	c.charge(c.m.chargeAccess(res))
	c.release()
	return v
}

// SpinUntil waits until the word at addr reads want. It is the loop
//
//	for c.Load(addr) != want {
//		c.Step(func(m *Machine) uint64 { return m.Config().Lat.ALU })
//	}
//
// with every grant, cycle and cache effect of it. The step between polls is
// granted rather than an Exec because Exec is core-private and takes no
// grant: in host order an Exec charge could land before another core's Step
// (a Stats.Reset, say) although this core's clock is after it. A machine
// that grants every operation runs the loop as written. Otherwise a core
// that loses its lease mid-spin parks in the run queue at the key of its
// due poll or step (behind its posted stores), and pick runs each one
// inline on whichever coroutine holds the grant — a grant, but no lease
// and no switch — until a poll is due whose word already reads want, or a
// due operation reaches the watchdog threshold. Only that last operation
// is leased; it is this core's own, checked by its own grant duties.
func (c *Ctx) SpinUntil(addr, want uint64) {
	for poll := true; ; poll = !poll {
		if !c.leased && !c.m.perOpDuties {
			c.spinning, c.spinPoll, c.spinAddr, c.spinWant = true, poll, addr, want
			c.m.handoff(c)
			poll = c.spinPoll // woken for this due operation
			c.grantDuties()
		}
		if !poll {
			c.Step(aluStep)
		} else if c.Load(addr) == want {
			return
		}
	}
}

func aluStep(m *Machine) uint64 { return m.cfg.Lat.ALU }

// parked reports whether pick runs c's due operation inline: c has posted
// stores or is spinning.
func (c *Ctx) parked() bool { return c.postLen != 0 || c.spinning }

// key is c's place in the run queue's (clock, id) order.
func (c *Ctx) key() heapEntry { return heapEntry{clock: c.clock, id: c.id} }

// dueOp runs parked core c's due operation inline, as the grant holder, at
// the (clock, id) c was popped at — where c's own grant would run it — and
// reports whether pick may lease c now. The oldest posted store goes first,
// with the Execs posted after it; once none is left c unparks unless it
// spins, and is leased if it is still the least key. A spin's due
// operation is its poll or step, unless it is a poll whose word reads
// spinWant or an operation at or past the watchdog threshold: then c
// unparks and dueOp reports true, for c to run it itself. On a failed
// machine c's due operations are dropped — its next grant would stop it —
// and c is woken to stop.
func (c *Ctx) dueOp() bool {
	if c.m.failed.Load() {
		c.postHead, c.postLen, c.commitAt, c.spinning = 0, 0, noCommit, false
		return true
	}
	if c.postLen != 0 {
		c.retirePost()
		return !c.parked() && c.key().less(c.m.runq.min())
	}
	if c.clock >= c.m.checkAt || c.spinPoll && c.m.Mem.Load(c.spinAddr) == c.spinWant {
		c.spinning = false
		return true
	}
	c.publish()
	c.m.sched.Grants++
	if c.spinPoll {
		c.noteAccess(c.spinAddr)
		c.charge(c.m.chargeAccess(c.m.Caches.Access(c.id, c.spinAddr, false)))
	} else {
		c.charge(c.m.cfg.Lat.ALU)
	}
	c.spinPoll = !c.spinPoll
	return false
}

// Store writes the word at addr. A core that holds no lease on a machine
// with no per-operation duty posts the store instead of waiting for a
// grant: nothing it returns depends on the order, so the core runs on, and
// the store (with the Execs after it) retires at its (clock, id) key when
// the core next needs a result — a Load, CAS, Step or mark operation,
// Clock, EmitTxn with a trace attached, or the program's end. So host code
// after a Store, like host code after an Exec, runs at the position of the
// last operation that returned a result. A store that might start at or
// past the watchdog threshold is not posted (see mayRunAhead), so no
// check trips behind host code that ran ahead of it.
func (c *Ctx) Store(addr, val uint64) {
	if !c.leased && !c.m.perOpDuties && c.post(addr, val) {
		return
	}
	c.acquire()
	c.store(c.cat, addr, val)
	c.release()
}

// store is a granted Store's effect, charged to cat.
func (c *Ctx) store(cat telemetry.Category, addr, val uint64) {
	c.noteAccess(addr)
	res := c.m.Caches.Access(c.id, addr, true)
	c.m.Mem.Store(addr, val)
	c.chargeTo(cat, c.m.chargeAccess(res))
}

// post queues a store and reports true, or reports false, for the caller
// to take the granted path, when the queue is full, the store might start
// at or past the watchdog threshold, or addr is misaligned or unallocated:
// that store's panic must run on this core's coroutine, not on the one
// that retires it. An allocation is never undone, so an address valid now
// is valid when the store retires.
func (c *Ctx) post(addr, val uint64) bool {
	if c.postLen == postCap || !c.mayRunAhead() || addr%mem.WordSize != 0 || !c.m.Mem.Allocated(addr) {
		return false
	}
	if c.postLen == 0 {
		c.postBound = c.clock
	}
	c.postBound += max(c.m.cfg.Lat.L1Hit, c.m.cfg.Lat.L2Hit, c.m.cfg.Lat.Mem) // the most its access can charge
	c.posts[c.postLen], c.postCat[c.postLen] = postedOp{addr, val}, uint8(c.cat)
	c.postLen++
	return true
}

// postExec queues an Exec charge behind the posted stores, folding it into
// the last posted Exec when that charges the same category and no commit
// was noted between them, and reports false when the queue is full.
func (c *Ctx) postExec(cycles uint64) bool {
	c.postBound += cycles
	last := c.postLen - 1
	if c.posts[last].addr == 0 && c.postCat[last] == uint8(c.cat) && c.commitAt != c.postLen {
		c.posts[last].val += cycles
		return true
	}
	if c.postLen == postCap {
		return false
	}
	c.posts[c.postLen], c.postCat[c.postLen] = postedOp{0, cycles}, uint8(c.cat)
	c.postLen++
	return true
}

// retirePost runs c's oldest posted store and the Execs posted after it,
// as dueOp's grant, and publishes the commit noted among them at the clock
// its place in the queue gives it.
func (c *Ctx) retirePost() {
	c.m.sched.Grants++
	op := c.posts[c.postHead]
	c.store(telemetry.Category(c.postCat[c.postHead]), op.addr, op.val)
	for c.postHead++; c.postHead < c.postLen && c.posts[c.postHead].addr == 0; c.postHead++ {
		c.settleCommit()
		c.chargeTo(telemetry.Category(c.postCat[c.postHead]), c.posts[c.postHead].val)
	}
	c.settleCommit()
	if c.postHead == c.postLen {
		c.postHead, c.postLen = 0, 0
	}
}

// settleCommit publishes the commit noted before posts[postHead] — or after
// the last post — once the posts ahead of it have retired.
func (c *Ctx) settleCommit() {
	if c.commitAt == c.postHead {
		c.commitAt = noCommit
		c.m.noteCommitClock(c.clock)
	}
}

// CAS atomically compares-and-swaps the word at addr, returning success and
// the value observed.
func (c *Ctx) CAS(addr, old, new uint64) (bool, uint64) {
	c.acquire()
	c.noteAccess(addr)
	res := c.m.Caches.Access(c.id, addr, true)
	cur := c.m.Mem.Load(addr)
	ok := cur == old
	if ok {
		c.m.Mem.Store(addr, new)
	}
	c.charge(c.m.chargeAccess(res) + c.m.cfg.Lat.CAS)
	c.release()
	return ok, cur
}

// Alloc reserves simulated memory as one granted architectural step: the
// bump allocator is shared machine state, so allocation must be
// serialised like any other access for runs to stay deterministic. The
// charge models an allocation fast path.
func (c *Ctx) Alloc(size, align uint64) uint64 {
	var addr uint64
	c.Step(func(m *Machine) uint64 {
		addr = m.Mem.Alloc(size, align)
		return 8
	})
	return addr
}

// Step runs f as a single granted architectural operation with exclusive
// access to the machine's shared state (memory, caches, listener-managed
// structures); f returns the cycles to charge. The HTM model builds its
// composite operations (speculative access + set tracking, atomic commit)
// out of Steps so that all of its state changes stay inside granted
// sections and runs remain deterministic. f must not call other Ctx
// methods. A Step is always granted, so a Step with an empty f is how a
// program spins on host state another core's Step writes (Exec would not
// be ordered against that write).
func (c *Ctx) Step(f func(m *Machine) uint64) {
	c.acquire()
	c.charge(f(c.m))
	c.release()
}

// AccessCost performs the cache access for core and returns its latency;
// a helper for Step-based composite operations.
func (m *Machine) AccessCost(core int, addr uint64, write bool) uint64 {
	return m.chargeAccess(m.Caches.Access(core, addr, write))
}

// --- The six proposed instructions (§3.1) ---------------------------------
//
// The primary forms take a filter plane; the paper implemented one filter
// ("We only implemented a single filter, but one could support multiple
// filters concurrently with independent mark bits") and the plane-less
// wrappers below operate on plane 0.

// markLoad is the one body of the three mark loads: it loads the word at
// addr and applies op to the plane's mark bits covering [addr, addr+gran)
// in the same cache access, charging extra cycles on top of the access.
// Under the default ISA there are no mark bits: loadsetmark increments the
// plane's mark counter instead and loadtestmark reports false. A load that
// faults (Mem.Load panics on a misaligned or unallocated address) keeps its
// cache access but changes no mark bit or counter.
func (c *Ctx) markLoad(op cache.MarkOp, plane int, addr, gran, extra uint64) (uint64, bool) {
	c.acquire()
	c.noteAccess(addr)
	var res cache.AccessResult
	marked := false
	if c.m.cfg.DefaultISA || addr%mem.WordSize != 0 || !c.m.Mem.Allocated(addr) {
		res = c.m.Caches.Access(c.id, addr, false)
	} else {
		res, marked = c.m.Caches.MarkAccess(c.id, plane, addr, gran, op)
	}
	v := c.m.Mem.Load(addr)
	if c.m.cfg.DefaultISA && op == cache.MarkSet {
		c.bumpMarkCounter(plane)
	}
	c.charge(c.m.chargeAccess(res) + extra)
	c.release()
	return v, marked
}

// LoadSetMarkP loads the word at addr and sets the plane's mark bits
// covering [addr, addr+gran). The charge includes the store-queue cost of
// the mark update.
func (c *Ctx) LoadSetMarkP(plane int, addr, gran uint64) uint64 {
	v, _ := c.markLoad(cache.MarkSet, plane, addr, gran, c.m.cfg.Lat.StoreQ)
	return v
}

// LoadSetMark is LoadSetMarkP on filter plane 0.
func (c *Ctx) LoadSetMark(addr, gran uint64) uint64 { return c.LoadSetMarkP(0, addr, gran) }

// LoadResetMarkP loads the word at addr and clears the plane's covering
// mark bits.
func (c *Ctx) LoadResetMarkP(plane int, addr, gran uint64) uint64 {
	v, _ := c.markLoad(cache.MarkReset, plane, addr, gran, 0)
	return v
}

// LoadTestMarkP loads the word at addr and returns the AND of the plane's
// covering mark bits as the load found the line (the carry flag). The
// charge includes the dependent-branch resolve penalty.
func (c *Ctx) LoadTestMarkP(plane int, addr, gran uint64) (uint64, bool) {
	return c.markLoad(cache.MarkTest, plane, addr, gran, c.m.cfg.Lat.TestMarkBranch)
}

// LoadTestMark is LoadTestMarkP on filter plane 0.
func (c *Ctx) LoadTestMark(addr, gran uint64) (uint64, bool) { return c.LoadTestMarkP(0, addr, gran) }

// ResetMarkAllP clears every mark bit of the plane in this core's cache
// and increments the plane's mark counter.
func (c *Ctx) ResetMarkAllP(plane int) {
	c.acquire()
	if !c.m.cfg.DefaultISA {
		c.m.Caches.ClearAllMarks(c.id, plane)
	}
	c.bumpMarkCounter(plane)
	c.charge(c.m.cfg.Lat.ALU)
	c.release()
}

// ResetMarkAll is ResetMarkAllP on filter plane 0.
func (c *Ctx) ResetMarkAll() { c.ResetMarkAllP(0) }

// ResetMarkCounterP zeroes the plane's mark counter.
func (c *Ctx) ResetMarkCounterP(plane int) {
	c.acquire()
	c.markCounter[plane] = 0
	c.charge(c.m.cfg.Lat.ALU)
	c.release()
}

// ResetMarkCounter is ResetMarkCounterP on filter plane 0.
func (c *Ctx) ResetMarkCounter() { c.ResetMarkCounterP(0) }

// ReadMarkCounterP returns the plane's saturating mark counter.
func (c *Ctx) ReadMarkCounterP(plane int) uint64 {
	c.acquire()
	v := c.markCounter[plane]
	c.charge(c.m.cfg.Lat.ALU)
	c.release()
	return v
}

// ReadMarkCounter is ReadMarkCounterP on filter plane 0.
func (c *Ctx) ReadMarkCounter() uint64 { return c.ReadMarkCounterP(0) }

// RingTransition models an explicit OS transition (context switch, GC
// safepoint): the hardware discards all marks and bumps the counter, and
// the core pays the transition cost. The transaction is NOT aborted — it
// merely falls back to full software validation, the paper's key
// virtualization property.
func (c *Ctx) RingTransition() {
	c.acquire()
	c.ringTransitionNow()
	c.release()
}
