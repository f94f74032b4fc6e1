package harness

import (
	"fmt"
	"sync"
	"time"

	"hastm.dev/hastm/internal/faults"
	"hastm.dev/hastm/internal/htm"
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/native"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

// Every run the harness makes — figure cell, service cell, fault or progress
// verdict, conformance hash — is one cell, and this file is the only place a
// cell is driven (DESIGN.md, "Cell life-cycle"). A caller describes the cell
// (a simSpec or nativeSpec), lays its subject out on the memory the runner
// hands it, gives run the per-thread warm-up and measured functions, and
// judges the result with verdict. The simulator and the host share no
// transport — coroutines meeting at an in-memory barrier, goroutines at a
// WaitGroup — so there are two runners and one verdict order, not one
// interface over both.

// splitOps is the ops-per-thread split of every cell that divides a fixed
// total of work among its threads.
func splitOps(ops, threads int) (int, error) {
	if ops/threads < 1 {
		return 0, fmt.Errorf("ops %d cannot be split over %d threads", ops, threads)
	}
	return ops / threads, nil
}

// warmupPerThread sizes a cell's warm-up: Options.Warmup operations in
// total (0 means Ops/4, at least 64), at least one on every thread.
func (o Options) warmupPerThread(threads int) int {
	warm := o.Warmup
	if warm == 0 {
		warm = max(o.Ops/4, 64)
	}
	return max(warm/threads, 1)
}

// armed returns o with the escalation ladder on: a cell whose subject needs
// the ladder (the service's serialize action, the chaos storm, the
// hastm-irrevocable scheme) runs at IrrevocableDefaultBudget unless
// Options.RetryBudget names another budget.
func (o Options) armed() Options {
	if o.RetryBudget == 0 {
		o.RetryBudget = IrrevocableDefaultBudget
	}
	return o
}

// outcome is how a run ended, before its result is checked.
type outcome struct {
	health    error // contained core panic, watchdog trip or host-watchdog violation
	threadErr error // the lowest-numbered failing thread's error
}

// verdict is the one order in which a finished cell is judged. An unhealthy
// run outranks everything — the errors its unwound threads return and
// whatever state it left behind describe the failure, not the subject — a
// thread error outranks the check, and only a run that completed is held
// against its invariants or oracle (verify, nil when the cell has none).
func (r outcome) verdict(verify func() error) error {
	switch {
	case r.health != nil:
		return r.health
	case r.threadErr != nil:
		return r.threadErr
	case verify != nil:
		return verify()
	}
	return nil
}

// simSpec describes a simulator cell. What differs between cells is data
// here (and in o: a fault-free cell has a nil faults, a traced cell a
// positive o.TxnTraceMax, an armed ladder is o.armed()), never a fork in the
// runner.
type simSpec struct {
	scheme string
	// workload names the §7.1 structure the cell builds with structure(),
	// and makes the cell split o.Ops over its threads; "" when the cell
	// lays out a subject of its own.
	workload string
	threads  int
	o        Options
	faults   *faults.Spec      // fault plane to attach, nil for none
	geometry func(*sim.Config) // adjusts the evaluation machine (the SMT cell), nil for none
}

// simCell is a simulator cell between newSimCell and run: the machine is
// built, its planes attached and the scheme constructed; the caller lays
// the subject out on m.Mem.
type simCell struct {
	simSpec
	m     *sim.Machine
	sys   tm.System
	plane *faults.Plane // nil unless faults was set
	ops   int           // o.Ops per thread, when workload is set
}

// validate rejects unknown schemes and workloads, bad thread counts, NUMA
// misconfigurations and unsplittable totals before any machine is built,
// and returns the cell's operations per thread.
func (s simSpec) validate() (ops int, err error) {
	if s.threads < 1 {
		return 0, fmt.Errorf("cores must be >= 1, got %d", s.threads)
	}
	if _, ok := lookup(schemeTable, s.scheme); !ok {
		return 0, fmt.Errorf("unknown scheme %q", s.scheme)
	}
	if _, err := ParseMapping(s.o.Mapping); err != nil {
		return 0, err
	}
	if top := s.o.Topology; top != (sim.Topology{}) {
		if top.Sockets <= 0 || top.CoresPerSocket <= 0 {
			return 0, fmt.Errorf("topology %s needs positive sockets and cores per socket", top)
		}
		if total := s.o.machineCores(s.threads); s.threads > total {
			return 0, fmt.Errorf("topology %s has %d cores, run needs %d threads", top, total, s.threads)
		}
	}
	if s.workload == "" {
		return 0, nil
	}
	if _, ok := lookup(structureTable, s.workload); !ok {
		return 0, fmt.Errorf("unknown workload %q", s.workload)
	}
	return splitOps(s.o.Ops, s.threads)
}

// newSimCell validates the description, then builds in the order every
// simulated byte depends on: machine, trace, fault plane, scheme.
func newSimCell(s simSpec) (simCell, error) {
	ops, err := s.validate()
	if err != nil {
		return simCell{}, err
	}
	c := simCell{simSpec: s, ops: ops, m: machineFor(s.threads, s.o, s.geometry)}
	if s.o.TxnTraceMax > 0 {
		c.m.SetTxnTrace(telemetry.NewTraceBuffer(s.o.TxnTraceMax))
	}
	if s.faults != nil {
		c.plane = faults.Attach(c.m, *s.faults)
	}
	c.sys = buildScheme(s.scheme, c.m, s.threads, s.o)
	if hs, ok := c.sys.(*htm.System); ok && c.plane != nil {
		c.plane.RegisterHTMAborter(hs.Manager().InjectSpuriousAbort)
	}
	return c, nil
}

// structure builds and populates the cell's named structure.
func (c *simCell) structure() workloads.DataStructure {
	return populated(c.workload, c.m.Mem, c.o)
}

// How a cell's warm-up hands over to its measured phase.
type warmEnd int

const (
	// warmKept: no boundary. The measured phase's counters include the
	// warm-up (the extension micro-kernels, whose figures count both).
	warmKept warmEnd = iota
	// warmStep: one thread, one granted step that discards the warm-up's
	// counters (the Fig 15 kernel).
	warmStep
	// warmBarrier: every thread meets at the barrier and thread 0's release
	// discards the warm-up's counters (structure and service cells).
	warmBarrier
)

// simThreadFunc is one phase of one thread of a simulator cell.
type simThreadFunc func(c *sim.Ctx, th tm.Thread, id int) error

// simThread is a thread's slot, indexed by the core it is placed on.
type simThread struct {
	id     int    // thread number
	cycles uint64 // length of the measured phase on this thread's clock
	err    error
}

// run drives the cell: one program per thread, placed on its core by the
// mapping policy, each running the optional warm-up, the hand-over, and the
// measured phase between two readings of its own clock. A cell with a
// warm-up reports the longest measured phase; one without reports the
// machine's wall clock, which also stands when a watchdog cut the run short.
func (c *simCell) run(end warmEnd, warm, measure simThreadFunc) (RunMetrics, outcome) {
	m, sys, threads := c.m, c.sys, c.threads
	var arrived, goFlag uint64
	if warm != nil && end == warmBarrier {
		arrived = m.Mem.Alloc(mem.LineSize, mem.LineSize)
		goFlag = m.Mem.Alloc(mem.LineSize, mem.LineSize)
	}
	slots := make([]simThread, m.Config().Cores)
	prog := func(ctx *sim.Ctx) {
		slot := &slots[ctx.ID()]
		th := sys.Thread(ctx)
		if warm != nil {
			err := warm(ctx, th, slot.id)
			switch end {
			case warmStep:
				ctx.Step(func(m *sim.Machine) uint64 { resetMeasurement(m); return 1 })
			case warmBarrier:
				barrier(ctx, arrived, goFlag, threads, resetMeasurement)
			}
			// A thread whose warm-up failed still checks in above — the
			// others would wait for it forever — and then sits the
			// measured phase out.
			if err != nil {
				slot.err = fmt.Errorf("warmup: %w", err)
				return
			}
		}
		start := ctx.Clock()
		slot.err = measure(ctx, th, slot.id)
		slot.cycles = ctx.Clock() - start
	}
	// On a flat machine threads and cores coincide and progs has no gaps.
	progs := make([]sim.Program, len(slots))
	for i := 0; i < threads; i++ {
		core := c.o.threadCore(i)
		slots[core].id, progs[core] = i, prog
	}
	wall := m.Run(progs...)

	res := outcome{health: m.CheckHealth()}
	var measured uint64
	for i := 0; i < threads; i++ {
		slot := &slots[c.o.threadCore(i)]
		measured = max(measured, slot.cycles)
		if slot.err != nil && res.threadErr == nil {
			res.threadErr = fmt.Errorf("thread %d: %w", i, slot.err)
		}
	}
	if warm != nil {
		wall = measured
	}
	metrics := RunMetrics{
		WallCycles: wall,
		Stats:      m.Stats,
		CacheStats: m.Caches,
		TxnTrace:   m.TxnTrace(),
		Sched:      m.Sched(),
	}
	if !m.Topology().IsFlat() {
		metrics.Topology = m.Topology()
		metrics.Placement = c.o.Placement
		metrics.Mapping, _ = ParseMapping(c.o.Mapping)
	}
	return metrics, res
}

// barrier is the warm-up barrier of every multi-core pipeline: each core
// checks in on arrived; core 0 waits for all of them, runs release as one
// granted Step and raises goFlag, which the others wait for. A waiter's
// spin is a granted Step charging Lat.ALU rather than Exec(1) — same
// cycles, grants and category — because Exec is core-private and takes no
// grant: in host order a waiter's Exec charge could land before core 0's
// release (which resets the cycle counters Exec charges) although its clock
// is after it. Core 0's own Exec precedes its release in program order.
func barrier(c *sim.Ctx, arrived, goFlag uint64, cores int, release func(*sim.Machine)) {
	for {
		old := c.Load(arrived)
		if ok, _ := c.CAS(arrived, old, old+1); ok {
			break
		}
	}
	if c.ID() != 0 {
		alu := c.Machine().Config().Lat.ALU
		for c.Load(goFlag) != 1 {
			c.Step(func(*sim.Machine) uint64 { return alu })
		}
		return
	}
	for c.Load(arrived) != uint64(cores) {
		c.Exec(1)
	}
	c.Step(func(m *sim.Machine) uint64 { release(m); return 1 })
	c.Store(goFlag, 1)
}

// resetMeasurement excludes the warmup from the metrics store and the
// transaction trace so reports describe steady state only — and so the
// trace's abort events tally exactly with the abort counters.
func resetMeasurement(m *sim.Machine) {
	m.Stats.Reset()
	if tb := m.TxnTrace(); tb != nil {
		tb.Reset()
	}
}

// nativeSpec describes a host-backend cell. o contributes the ladder budget
// (RetryBudget) and the chaos plane (Chaos) as well as the sizes.
type nativeSpec struct {
	workload string // as simSpec.workload
	threads  int
	o        Options
	// perThread gives every goroutine the full o.Ops instead of a share:
	// the throughput cells' subject is scaling, and per-thread work must
	// not shrink as the sweep widens.
	perThread bool
}

// nativeCell is a host cell between newNativeCell and run: the memory
// exists and the caller lays the subject out on it; the TL2 system is built
// over the populated memory by run.
type nativeCell struct {
	nativeSpec
	mem *mem.Memory
	ops int // o.Ops per goroutine, when workload is set
}

// validate rejects bad thread counts, unknown workloads and unsplittable
// totals, and returns the cell's operations per goroutine.
func (s nativeSpec) validate() (ops int, err error) {
	if s.threads < 1 {
		return 0, fmt.Errorf("threads must be >= 1, got %d", s.threads)
	}
	if s.workload == "" {
		return 0, nil
	}
	if _, ok := lookup(structureTable, s.workload); !ok {
		return 0, fmt.Errorf("unknown workload %q", s.workload)
	}
	if s.perThread {
		return s.o.Ops, nil
	}
	return splitOps(s.o.Ops, s.threads)
}

func newNativeCell(s nativeSpec) (nativeCell, error) {
	ops, err := s.validate()
	if err != nil {
		return nativeCell{}, err
	}
	return nativeCell{nativeSpec: s, mem: mem.New(), ops: ops}, nil
}

// structure builds and populates the cell's named structure.
func (c *nativeCell) structure() workloads.DataStructure {
	return populated(c.workload, c.mem, c.o)
}

// nativeThreadFunc is one phase of one goroutine of a host cell.
type nativeThreadFunc func(th tm.Thread, id int) error

// run drives the cell on host goroutines with the watchdogs armed: the
// optional warm-up, then a barrier at which the coordinator resets the
// counters, stamps the host clock and releases every goroutine at once,
// then the measured phase.
func (c *nativeCell) run(warm, measure nativeThreadFunc) (RunMetrics, outcome) {
	threads := c.threads
	sys := native.New(c.mem, native.Config{
		TM:      tm.Config{Progress: tm.Progress{RetryBudget: c.o.RetryBudget}},
		Threads: threads,
		Chaos:   c.o.Chaos,
	})
	// Pre-create every thread handle before any goroutine (the watchdog
	// included) runs: the watchdog scans the handle table, and lazy
	// creation inside the workers would race with it.
	for g := 0; g < threads; g++ {
		sys.Thread(g)
	}
	sys.StartWatchdog()

	// ready: every goroutine has warmed up; start: the coordinator's
	// release; done: every goroutine has finished.
	var gate struct{ ready, start, done sync.WaitGroup }
	errs := make([]error, threads)
	gate.ready.Add(threads)
	gate.start.Add(1)
	gate.done.Add(threads)
	for g := 0; g < threads; g++ {
		go func(id int) {
			defer gate.done.Done()
			th := sys.Thread(id)
			var err error
			if warm != nil {
				err = warm(th, id)
			}
			gate.ready.Done() // always check in, or the coordinator deadlocks
			if err != nil {
				errs[id] = fmt.Errorf("warmup: %w", err)
				return
			}
			gate.start.Wait()
			errs[id] = measure(th, id)
		}(g)
	}
	gate.ready.Wait()
	sys.Stats().Reset()
	start := time.Now()
	gate.start.Done()
	gate.done.Wait()
	hostNS := time.Since(start).Nanoseconds()
	sys.StopWatchdog()

	res := outcome{health: sys.CheckHealth()}
	for id, err := range errs {
		if err != nil {
			res.threadErr = fmt.Errorf("thread %d: %w", id, err)
			break
		}
	}
	return RunMetrics{
		Stats:   sys.Stats(),
		HostNS:  hostNS,
		Backend: sys.Name(),
		Chaos:   chaosRecord(sys.ChaosReport(), res.health),
	}, res
}
