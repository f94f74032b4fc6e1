// Package sim is the multi-core machine simulator that stands in for the
// paper's "accurate multi-core IA32 simulator".
//
// Each simulated core runs a Go function (its program) against a shared
// simulated address space through a Ctx. A conservative scheduler serialises
// every architectural operation in global cycle order: the core with the
// smallest local clock executes the next operation (ties broken by core id),
// so runs are deterministic and the interleaving IS the timing model.
//
// Each core program is a coroutine (iter.Pull) driven by the scheduler loop
// itself, so core programs run strictly one at a time on the scheduler's
// thread — Ctx methods may only be called from the program's own coroutine,
// and a program that blocks in host code blocks the whole machine. A grant
// is a direct switch into the granted core's coroutine; the switch back
// happens when that core next asks for an operation it holds no grant for
// (Ctx.acquire yields) or when its program returns.
//
// There is one such transport and three pick loops over it. The reference
// loop (Config.ReferenceScheduler) scans for the min-clock core and grants
// it exactly one operation. The default grant-lease loop instead grants the
// min-clock core a *lease*: the right to execute operations inline for as
// long as its pre-operation (clock, id) stays below the horizon (the
// (clock, id) minimum of the other runnable cores, maintained in a
// min-heap); the multi-socket loop is the same with one heap per socket.
// Below the horizon this core is the minimum, so the serial scheduler would
// have granted it every one of those operations anyway — a clock tie
// included, when this core's id is the lower. Grant order — and therefore
// every simulated result — is identical under all three loops; only the
// number of coroutine switches changes. A single runnable core (every
// 1-core cell, and the tail of every multi-core run) executes with zero
// handoffs.
//
// Only operations on shared state need that order. Exec is core-private —
// it adds to this core's clock and cycle counters and nothing else — so it
// takes no grant unless a per-operation duty is armed (Machine.perOpDuties):
// absorbing it early only moves the core to the clock it would have reached
// anyway, and every shared operation is still granted at the same
// (pre-operation clock, id) key. The corollary for harness authors: host
// code after an Exec runs at the position of the preceding shared
// operation, so poll host state another core writes inside a Step with a
// granted operation (as the harness barrier does), never with Exec.
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
	"strconv"
	"strings"
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

	// Cross-socket costs; charged only on a multi-socket Topology, so a
	// 1-socket machine's timing is untouched by their values. RemoteL2 is a
	// miss served clean from another socket's L2; RemoteDirty is a miss
	// served from a line a remote core held modified (the expensive
	// two-hop transfer); RemoteMem is the penalty ON TOP of Mem when the
	// missed page's home socket is not the accessor's.
	RemoteL2    uint64
	RemoteDirty uint64
	RemoteMem   uint64
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
		RemoteL2:       50,
		RemoteDirty:    90,
		RemoteMem:      150,
	}
}

// Topology shapes the machine into sockets: Sockets per-socket L2s with
// CoresPerSocket hardware threads each. The zero value means a flat
// 1-socket machine over all cores — the model every experiment used before
// sockets existed, and still byte-identical to it.
type Topology struct {
	Sockets        int
	CoresPerSocket int
}

// IsFlat reports whether the topology is the single-socket default.
func (t Topology) IsFlat() bool { return t.Sockets <= 1 }

func (t Topology) String() string {
	return fmt.Sprintf("%dx%d", t.Sockets, t.CoresPerSocket)
}

// ParseTopology parses the CLI "SxC" form, e.g. "4x16" = 4 sockets × 16
// cores.
func ParseTopology(s string) (Topology, error) {
	// ParseUint, not Sscanf: "%dx%d" accepts signs, inner spaces and
	// trailing garbage ("4x16x2" scans as 4x16).
	sockets, cps, ok := strings.Cut(s, "x")
	ns, errS := strconv.ParseUint(sockets, 10, 31)
	nc, errC := strconv.ParseUint(cps, 10, 31)
	if !ok || errS != nil || errC != nil {
		return Topology{}, fmt.Errorf("sim: topology %q is not SxC (e.g. 4x16)", s)
	}
	t := Topology{Sockets: int(ns), CoresPerSocket: int(nc)}
	if t.Sockets <= 0 || t.CoresPerSocket <= 0 {
		return Topology{}, fmt.Errorf("sim: topology %q needs positive sockets and cores per socket", s)
	}
	return t, nil
}

// resolve fills the zero value in for a machine with the given core count.
func (t Topology) resolve(cores int) Topology {
	if t.Sockets == 0 && t.CoresPerSocket == 0 {
		return Topology{Sockets: 1, CoresPerSocket: cores}
	}
	return t
}

// Config describes a machine.
type Config struct {
	Cores int
	L1    cache.Config
	L2    cache.Config
	Lat   Latencies

	// Topology splits the cores over sockets, each with its own shared L2
	// and directory. The zero value is the flat 1-socket machine. Sockets ×
	// CoresPerSocket must equal Cores.
	Topology Topology

	// Placement picks how memory pages are homed on sockets (first-touch
	// vs. interleaved); it matters only on a multi-socket Topology, where a
	// miss to a remote-homed page pays Lat.RemoteMem on top of Lat.Mem.
	Placement mem.Placement

	// DefaultISA selects the Section 3.3 default implementation of the
	// mark-bit instructions (no marking; loadsetmark and resetmarkall
	// increment the mark counter). Software runs correctly, unaccelerated.
	DefaultISA bool

	// Prefetch enables the next-line L1 prefetcher (a source of the
	// destructive interference discussed in §7.4).
	Prefetch bool

	// MarkCounterMax is the saturation value of the per-thread mark
	// counter. Zero means "use the default" (a 16-bit counter).
	MarkCounterMax uint64

	// InterruptEvery, if non-zero, injects a ring transition on each core
	// every so many cycles; the hardware executes resetmarkall on the
	// transition, exactly as §5 prescribes for interrupts.
	InterruptEvery uint64

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
	// not directly related to the transaction size".
	SpecRFOEvery uint64

	// ReferenceScheduler selects the original per-operation pick loop (a
	// lease of length one, i.e. one coroutine switch into the core and one
	// back, per architectural op) instead of the grant-lease loop. Both
	// ride the same coroutine transport and produce byte-identical
	// simulated results — the differential test suite proves it — so this
	// switch exists as the executable specification the fast path is
	// checked against, not as a user-facing mode.
	ReferenceScheduler bool

	// WatchdogWindow, if non-zero, arms the commit-progress watchdog: when
	// no core publishes a commit for this many simulated cycles, the run
	// fails with a structured ProgressViolation instead of spinning
	// forever. Checked at grant points, so the trip is deterministic.
	WatchdogWindow uint64

	// CycleBudget, if non-zero, is a hard cap on any core's simulated
	// clock: the first granted operation starting beyond it fails the run
	// with a ProgressViolation. A backstop against runaway cells.
	CycleBudget uint64

	// StallTimeout, if non-zero, arms the host-side deadlock detector: if
	// no architectural operation is granted for this much host (wall) time,
	// the run is declared stalled — the granted core is blocked in host
	// code — and fails with a ProgressViolation instead of hanging. This is
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

const defaultMarkCounterMax = 1<<16 - 1

// Validate checks the configuration without building a machine, so
// callers (the CLI's -topology flag, the harness) can surface a clear
// error instead of a construction panic: the topology must factor the core
// count, and both cache levels must have power-of-two geometry.
func (cfg Config) Validate() error {
	if cfg.Cores <= 0 {
		return fmt.Errorf("sim: Config.Cores must be positive, got %d", cfg.Cores)
	}
	t := cfg.Topology.resolve(cfg.Cores)
	if t.Sockets <= 0 || t.CoresPerSocket <= 0 {
		return fmt.Errorf("sim: topology %s needs positive sockets and cores per socket", t)
	}
	if t.Sockets*t.CoresPerSocket != cfg.Cores {
		return fmt.Errorf("sim: topology %s covers %d cores, machine has %d",
			t, t.Sockets*t.CoresPerSocket, cfg.Cores)
	}
	return cache.HierarchyConfig{
		Cores:          cfg.Cores,
		ThreadsPerCore: cfg.ThreadsPerCore,
		Sockets:        t.Sockets,
		L1:             cfg.L1,
		L2:             cfg.L2,
	}.Validate()
}

// Program is the code one core runs.
type Program func(*Ctx)

// Machine is one simulated multi-core system.
type Machine struct {
	cfg    Config
	top    Topology // resolved (never zero): cfg.Topology or {1, Cores}
	Mem    *mem.Memory
	Caches *cache.Hierarchy
	Stats  *telemetry.Machine

	cores    []*Ctx
	ran      bool
	sched    SchedCounters
	txnTrace *telemetry.TraceBuffer
	fault    FaultHook

	// perOpDuties, fixed at Run, is true when every operation — Exec
	// included — must be individually granted: a watchdog, interrupt cadence
	// or fault hook is armed (their trip points, ring transitions and OnGrant
	// schedules are defined per grant), or this is the reference scheduler.
	// It is the one branch unarmed machines pay on the hot path.
	perOpDuties bool

	// Progress-guarantee state (see progress.go). watch is true when any
	// watchdog is armed.
	watch      bool
	failed     atomic.Bool
	violation  *ProgressViolation // written once, under the grant (or by Run on stall)
	lastCommit uint64             // clock of the most recently published commit; grant-holder only
	doneCores  []bool             // scheduler-maintained completion map
	beat       atomic.Uint64      // grant heartbeat for the host stall monitor
	granted    atomic.Int32       // core the scheduler last switched into, for the stall report
	faultsMu   sync.Mutex
	faults     []CoreFault
}

// SchedCounters is the scheduler's observability block: how many
// architectural operations ran and how many host-side handoffs (coroutine
// switches into a core and back, i.e. leases) were paid for them. Both
// values are pure functions of the simulated schedule, so they are
// deterministic for a given configuration — but Leases differs by design
// between the lease and reference schedulers, which is why they live here
// and not in the telemetry counter blocks the differential suite compares.
type SchedCounters struct {
	// Grants counts architectural operations, including the one completion
	// grant each program consumes to report termination. An Exec counts
	// whether or not it had to be granted, so Grants is the same under
	// every scheduler.
	Grants uint64
	// Leases counts scheduler handoffs: one switch from the scheduler
	// loop into a core's coroutine and one back. Under the reference
	// scheduler every grant is its own lease of length one; under the
	// grant-lease scheduler one lease covers a maximal run of consecutive
	// grants to the same core plus the Execs that follow it.
	Leases uint64
}

// HandoffsAvoided returns how many grants executed inline under a lease —
// or, for a core-private Exec, under no lease at all — without paying a
// coroutine round-trip.
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
	if cfg.MarkCounterMax == 0 {
		cfg.MarkCounterMax = defaultMarkCounterMax
	}
	top := cfg.Topology.resolve(cfg.Cores)
	m := &Machine{
		cfg: cfg,
		top: top,
		Mem: mem.New(),
		Caches: cache.New(cache.HierarchyConfig{
			Cores:          cfg.Cores,
			ThreadsPerCore: cfg.ThreadsPerCore,
			Sockets:        top.Sockets,
			L1:             cfg.L1,
			L2:             cfg.L2,
			Prefetch:       cfg.Prefetch,
		}),
		Stats: telemetry.NewMachine(cfg.Cores),
	}
	m.Mem.SetPlacement(top.Sockets, cfg.Placement)
	m.watch = cfg.WatchdogWindow > 0 || cfg.CycleBudget > 0 || cfg.StallTimeout > 0
	m.doneCores = make([]bool, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		m.cores = append(m.cores, &Ctx{
			m:     m,
			id:    i,
			cat:   telemetry.App,
			telem: m.Stats.Block(i),
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

// Topology returns the machine's resolved topology ({1, Cores} when the
// configuration left it zero).
func (m *Machine) Topology() Topology { return m.top }

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
	m.perOpDuties = m.watch || m.cfg.InterruptEvery > 0 || m.fault != nil || m.cfg.ReferenceScheduler
	if len(progs) > m.cfg.Cores {
		panic(fmt.Sprintf("sim: %d programs for %d cores", len(progs), m.cfg.Cores))
	}
	running := 0
	active := make([]bool, m.cfg.Cores)
	for i, p := range progs {
		if p == nil {
			continue
		}
		running++
		active[i] = true
		m.cores[i].start(p)
	}

	if m.cfg.StallTimeout == 0 {
		m.drive(running, active)
	} else if !m.driveWatched(running, active) {
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

// drive runs the configured pick loop until every program has finished.
func (m *Machine) drive(running int, active []bool) {
	switch {
	case m.cfg.ReferenceScheduler:
		m.runReference(running, active)
	case m.top.Sockets > 1:
		m.runLeaseSockets(running, active)
	default:
		m.runLease(running, active)
	}
}

// grant leases core c up to horizon and switches into its coroutine. The
// switch back comes when c next needs a grant it does not hold (see
// Ctx.acquire) or when its program has returned, which is the completion
// event: grant then reports false.
func (m *Machine) grant(c *Ctx, horizon heapEntry) (unfinished bool) {
	m.sched.Leases++
	c.horizon = horizon
	c.leased = true
	if m.cfg.StallTimeout > 0 {
		m.granted.Store(int32(c.id))
	}
	_, unfinished = c.next()
	return
}

// runReference is the original per-operation scheduler, kept verbatim as
// the executable specification of the grant order: scan for the
// non-finished active core with the smallest clock (ties to the lowest
// id), grant it exactly one operation, repeat.
func (m *Machine) runReference(running int, active []bool) {
	for running > 0 {
		pick := -1
		for i := 0; i < m.cfg.Cores; i++ {
			if !active[i] {
				continue
			}
			if pick < 0 || m.cores[i].clock < m.cores[pick].clock {
				pick = i
			}
		}
		// Zero horizon: release always hands back, a lease of length one.
		if !m.grant(m.cores[pick], heapEntry{}) {
			active[pick] = false
			m.doneCores[pick] = true
			running--
		}
	}
}

// runLease is the grant-lease scheduler. The run queue is a min-heap on
// (clock, id); the popped core receives the heap minimum that remains as
// its horizon and executes inline until an operation would start at or
// above it (see Ctx.release). Because no other core's clock can change
// while the lease is out, the horizon is exact, and the continuation rule
// — (clock, id) below the horizon entry — means every inline grant went to
// the core this loop would have popped next, which is the one runReference
// would have picked: a clock tie stays with the lower id, as in its scan.
func (m *Machine) runLease(running int, active []bool) {
	h := newSchedHeap(m.cfg.Cores)
	for i := 0; i < m.cfg.Cores; i++ {
		if active[i] {
			h.push(heapEntry{clock: m.cores[i].clock, id: i})
		}
	}
	for running > 0 {
		e := h.pop()
		c := m.cores[e.id]
		horizon := idleEntry // alone: run to completion, zero handoffs
		if h.len() > 0 {
			horizon = h.min()
		}
		if m.grant(c, horizon) {
			h.push(heapEntry{clock: c.clock, id: e.id})
		} else {
			m.doneCores[e.id] = true
			running--
		}
	}
}

// runLeaseSockets is the grant-lease scheduler for multi-socket machines:
// one min-heap per socket's lease group plus a cross-group clock frontier
// — an array holding each group's (clock, id) minimum. A grant picks the
// frontier's (clock, id)-smallest socket, pops that socket's heap, and
// computes the horizon from the remaining frontier, so heap operations
// stay O(log CoresPerSocket) and the cross-socket step is a scan of
// Sockets entries. Because every per-socket minimum is the
// (clock, id)-least of its group and the comparator is total, the frontier
// minimum IS the global minimum — the grant order is exactly runLease's,
// which the randomized scheduler differential proves at 64–256 cores.
func (m *Machine) runLeaseSockets(running int, active []bool) {
	nsock := m.top.Sockets
	cps := m.top.CoresPerSocket
	groups := make([]*schedHeap, nsock)
	frontier := make([]heapEntry, nsock) // mirror of groups[s].min(); idleEntry when empty
	for s := range groups {
		groups[s] = newSchedHeap(cps)
		frontier[s] = idleEntry
	}
	for i := 0; i < m.cfg.Cores; i++ {
		if active[i] {
			groups[i/cps].push(heapEntry{clock: m.cores[i].clock, id: i})
		}
	}
	for s := range groups {
		if groups[s].len() > 0 {
			frontier[s] = groups[s].min()
		}
	}
	for running > 0 {
		best := 0
		for s := 1; s < nsock; s++ {
			if frontier[s].less(frontier[best]) {
				best = s
			}
		}
		e := groups[best].pop()
		if groups[best].len() > 0 {
			frontier[best] = groups[best].min()
		} else {
			frontier[best] = idleEntry
		}
		c := m.cores[e.id]
		horizon := idleEntry
		for s := 0; s < nsock; s++ {
			if frontier[s].less(horizon) {
				horizon = frontier[s]
			}
		}
		// still idle: alone, run to completion
		if m.grant(c, horizon) {
			groups[best].push(heapEntry{clock: c.clock, id: e.id})
			frontier[best] = groups[best].min()
		} else {
			m.doneCores[e.id] = true
			running--
		}
	}
}

// heapEntry is one runnable core in the lease scheduler's run queue. The
// clock is a snapshot taken at hand-back; it cannot go stale because a
// core's clock only advances while the core holds the grant, and a core in
// the heap does not.
type heapEntry struct {
	clock uint64
	id    int
}

// idleEntry sorts after every runnable core: the horizon of a core running
// alone, and an empty socket's frontier slot.
var idleEntry = heapEntry{clock: ^uint64(0), id: int(^uint(0) >> 1)}

func (a heapEntry) less(b heapEntry) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.id < b.id)
}

// schedHeap is a hand-rolled binary min-heap on (clock, id). It replaces
// the reference scheduler's O(cores) scan per grant and stays
// allocation-free after construction (at most one entry per core).
type schedHeap struct{ e []heapEntry }

func newSchedHeap(capacity int) *schedHeap {
	return &schedHeap{e: make([]heapEntry, 0, capacity)}
}

func (h *schedHeap) len() int       { return len(h.e) }
func (h *schedHeap) min() heapEntry { return h.e[0] }

func (h *schedHeap) push(x heapEntry) {
	h.e = append(h.e, x)
	i := len(h.e) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.e[i].less(h.e[parent]) {
			break
		}
		h.e[i], h.e[parent] = h.e[parent], h.e[i]
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

	// The coroutine transport: the scheduler switches into the program
	// with next, the program switches back with yield.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// Lease state. leased is true while this core holds a grant it may
	// extend inline; horizon is the (clock, id) minimum of the other
	// runnable cores; the scheduler sets both when it issues the lease.
	// Under the reference scheduler horizon stays zero, so release always
	// hands back.
	leased  bool
	horizon heapEntry

	markCounter   [cache.NumMarkPlanes]uint64
	lastInterrupt uint64

	// Wrong-path RFO state: a small ring of recently accessed lines and
	// a deterministic jitter source.
	recent     [16]uint64
	recentPos  int
	accessTick uint64
	rfoRng     uint64

	cat   telemetry.Category
	telem *telemetry.Block

	// Progress-reporting state (see progress.go). NoteCommit/SetStatus run
	// in host code between grants, so they write only the pending fields;
	// progressDuties copies them to the published fields under the grant,
	// where watchdog snapshots (always taken by a grant holder) can read
	// them race-free via the scheduler's happens-before chain.
	commits        uint64 // core-local commit count (host-side)
	pendingCommit  bool
	pendingLabel   string
	pendingAttempt int
	statusDirty    bool
	pubCommits     uint64 // published under the grant
	statLabel      string
	statAttempt    int
}

// ID returns the core number.
func (c *Ctx) ID() int { return c.id }

// Clock returns the core-local cycle count.
func (c *Ctx) Clock() uint64 { return c.clock }

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

func (c *Ctx) charge(cycles uint64) {
	c.clock += cycles
	c.telem.Charge(c.cat, cycles)
}

// acquire obtains the grant for the next architectural operation — inline
// when this core holds a live lease, otherwise by switching back to the
// scheduler until it leases this core again — then runs the per-operation
// duties, if the machine has any.
func (c *Ctx) acquire() {
	if !c.leased {
		c.yield(struct{}{})
	}
	c.m.sched.Grants++
	if c.m.perOpDuties {
		c.opDuties()
	}
}

// opDuties runs the watchdogs, applies any pending ring transition and
// runs the fault hook. An armed machine grants every operation, Exec
// included, so these fire at the same deterministic points of the global
// operation order under every scheduler.
func (c *Ctx) opDuties() {
	if c.m.watch {
		c.progressDuties()
	}
	if iv := c.m.cfg.InterruptEvery; iv > 0 && (c.clock-c.lastInterrupt) >= iv {
		c.lastInterrupt = c.clock
		// The interrupt path executes resetmarkall before resuming (§5).
		c.ringTransitionNow()
	}
	if h := c.m.fault; h != nil {
		h.OnGrant(c)
	}
}

// ringTransitionNow is the architectural effect of an OS transition,
// applied while already holding the grant: discard all marks on every
// plane, bump the mark counters, pay the transition cost. Shared by the
// InterruptEvery path, RingTransition, and fault-hook suspensions.
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

// Cat returns the category cycles are currently attributed to —
// letting a FaultHook target a transaction phase (e.g. inject only while
// the core is validating).
func (c *Ctx) Cat() telemetry.Category { return c.cat }

// release ends the operation. While the post-operation (clock, id) is
// below the horizon entry this core is still the one the pick loop would
// choose — on a clock tie too, when its id is the lower — so the lease
// extends and the next acquire proceeds inline with no host handoff.
// Otherwise another core has caught up and the lease is given up: the next
// acquire yields and the scheduler picks. The program's host code (and any
// core-private Exec) up to that acquire still runs before the switch.
func (c *Ctx) release() {
	if !(heapEntry{clock: c.clock, id: c.id}).less(c.horizon) {
		c.leased = false
	}
}

func (c *Ctx) bumpMarkCounter(plane int) {
	if c.markCounter[plane] < c.m.cfg.MarkCounterMax {
		c.markCounter[plane]++
	}
}

// noteAccess records a demand access and, at the configured rate, issues
// the speculative RFO. The recently-accessed ring is also maintained when
// a fault hook is installed (it targets evictions/snoops at lines the
// core actually touched); ring upkeep is host-only work and charges
// nothing, so an all-rates-zero fault plane stays timing-neutral. Must be
// called while holding the grant.
func (c *Ctx) noteAccess(addr uint64) {
	every := c.m.cfg.SpecRFOEvery
	if every == 0 && c.m.fault == nil {
		return
	}
	c.recent[c.recentPos&15] = addr &^ 63
	c.recentPos++
	if every == 0 {
		return
	}
	c.accessTick++
	if c.accessTick < every {
		return
	}
	c.accessTick = 0
	c.rfoRng = c.rfoRng*6364136223846793005 + uint64(c.id)*2654435761 + 1442695040888963407
	n := c.recentPos
	if n > 16 {
		n = 16
	}
	target := c.recent[(c.rfoRng>>33)%uint64(n)]
	c.m.Caches.SpeculativeRFO(c.id, target)
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
	return c.recent[sel%uint64(n)], true
}

func (c *Ctx) accessCost(addr uint64, res cache.AccessResult) uint64 {
	return c.m.chargeAccess(c.id, addr, res)
}

// chargeAccess converts an access outcome into cycles. On a multi-socket
// machine a miss served by another socket pays the cross-socket latency,
// and a miss that reaches memory consults the placement policy: a
// remote-homed page adds RemoteMem on top of Mem (and counts a
// cross-socket miss). A 1-socket machine never sets the remote flags and
// skips the placement branch entirely, so its costs are exactly the flat
// model's.
func (m *Machine) chargeAccess(core int, addr uint64, res cache.AccessResult) uint64 {
	lat := &m.cfg.Lat
	switch {
	case res.L1Hit:
		return lat.L1Hit
	case res.L2Hit:
		return lat.L2Hit
	case res.RemoteDirty:
		return lat.RemoteDirty
	case res.RemoteL2:
		return lat.RemoteL2
	default:
		if m.top.Sockets > 1 {
			sock := m.Caches.SocketOf(core)
			if m.Mem.HomeSocket(addr, sock) != sock {
				m.Caches.NoteRemoteMemory(core)
				return lat.Mem + lat.RemoteMem
			}
		}
		return lat.Mem
	}
}

// Exec charges n ALU instructions. It is core-private: nothing it touches
// is visible to another core, so unless a per-operation duty is armed it
// takes no grant — it is counted, charged and tested against the horizon
// where it stands, with no switch even when the lease is gone. Shared
// operations keep their (pre-operation clock, id) grant keys, so the
// simulated schedule is the one that grants every Exec. Host code after an
// Exec must not read host state another core's Step writes; see Step.
func (c *Ctx) Exec(n uint64) {
	if n == 0 {
		return
	}
	if c.m.perOpDuties {
		c.acquire()
	} else {
		c.m.sched.Grants++
	}
	c.charge(n * c.m.cfg.Lat.ALU)
	c.release()
}

// Load returns the word at addr.
func (c *Ctx) Load(addr uint64) uint64 {
	c.acquire()
	c.noteAccess(addr)
	res := c.m.Caches.Access(c.id, addr, false)
	v := c.m.Mem.Load(addr)
	c.charge(c.accessCost(addr, res))
	c.release()
	return v
}

// Store writes the word at addr.
func (c *Ctx) Store(addr, val uint64) {
	c.acquire()
	c.noteAccess(addr)
	res := c.m.Caches.Access(c.id, addr, true)
	c.m.Mem.Store(addr, val)
	c.charge(c.accessCost(addr, res))
	c.release()
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
	c.charge(c.accessCost(addr, res) + c.m.cfg.Lat.CAS)
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
	res := m.Caches.Access(core, addr, write)
	return m.chargeAccess(core, addr, res)
}

// --- The six proposed instructions (§3.1) ---------------------------------
//
// The primary forms take a filter plane; the paper implemented one filter
// ("We only implemented a single filter, but one could support multiple
// filters concurrently with independent mark bits") and the plane-less
// wrappers below operate on plane 0.

// LoadSetMarkP loads the word at addr and sets the plane's mark bits
// covering [addr, addr+gran). Under the default ISA it loads and
// increments the plane's mark counter instead.
func (c *Ctx) LoadSetMarkP(plane int, addr, gran uint64) uint64 {
	c.acquire()
	c.noteAccess(addr)
	res := c.m.Caches.Access(c.id, addr, false)
	v := c.m.Mem.Load(addr)
	if c.m.cfg.DefaultISA {
		c.bumpMarkCounter(plane)
	} else {
		c.m.Caches.SetMark(c.id, plane, addr, gran)
	}
	c.charge(c.accessCost(addr, res) + c.m.cfg.Lat.StoreQ)
	c.release()
	return v
}

// LoadSetMark is LoadSetMarkP on filter plane 0.
func (c *Ctx) LoadSetMark(addr, gran uint64) uint64 { return c.LoadSetMarkP(0, addr, gran) }

// LoadResetMarkP loads the word at addr and clears the plane's covering
// mark bits.
func (c *Ctx) LoadResetMarkP(plane int, addr, gran uint64) uint64 {
	c.acquire()
	res := c.m.Caches.Access(c.id, addr, false)
	v := c.m.Mem.Load(addr)
	if !c.m.cfg.DefaultISA {
		c.m.Caches.ClearMark(c.id, plane, addr, gran)
	}
	c.charge(c.accessCost(addr, res))
	c.release()
	return v
}

// LoadResetMark is LoadResetMarkP on filter plane 0.
func (c *Ctx) LoadResetMark(addr, gran uint64) uint64 { return c.LoadResetMarkP(0, addr, gran) }

// LoadTestMarkP loads the word at addr and returns the AND of the plane's
// covering mark bits (the carry flag). Under the default ISA the flag is
// always false. The charge includes the dependent-branch resolve penalty.
func (c *Ctx) LoadTestMarkP(plane int, addr, gran uint64) (uint64, bool) {
	c.acquire()
	c.noteAccess(addr)
	marked := false
	if !c.m.cfg.DefaultISA {
		// Test before the access updates residency: the test asks about
		// the line's state as the load finds it.
		marked = c.m.Caches.TestMark(c.id, plane, addr, gran)
	}
	res := c.m.Caches.Access(c.id, addr, false)
	v := c.m.Mem.Load(addr)
	c.charge(c.accessCost(addr, res) + c.m.cfg.Lat.TestMarkBranch)
	c.release()
	return v, marked
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
