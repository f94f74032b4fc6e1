package harness

import (
	"fmt"
	"time"

	"hastm.dev/hastm/internal/cache"
	"hastm.dev/hastm/internal/core"
	"hastm.dev/hastm/internal/htm"
	"hastm.dev/hastm/internal/lazystm"
	"hastm.dev/hastm/internal/locksync"
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/native"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/spec"
	"hastm.dev/hastm/internal/stm"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

// Options tunes experiment sizes so the full evaluation (CLI) and the
// quick benchmarks (go test -bench) share one implementation.
type Options struct {
	// Ops is the total number of data-structure operations per run,
	// divided among the threads.
	Ops int
	// MicroTxns is the number of microbenchmark transactions per run.
	MicroTxns int
	// Warmup is the number of pre-measurement operations used to reach
	// cache and mode-controller steady state; 0 means Ops/4 (min 64).
	Warmup int
	// Structure sizes.
	HashSlots, TreeKeys uint64
	Seed                uint64
	// DefaultISA runs the experiment on a machine implementing only the
	// Section 3.3 default behaviour of the mark instructions.
	DefaultISA bool
	// TxnTraceMax, if positive, attaches the event trace (begin/commit/
	// abort-with-cause, txn id, retry index) holding at most this many
	// events to every run (RunMetrics.TxnTrace); hastm-bench -trace and
	// tmsim -trace set it.
	TxnTraceMax int
	// ReferenceScheduler runs every cell on the simulator's original
	// per-operation handoff scheduler instead of the grant-lease scheduler.
	// Simulated results are identical either way (the scheduler
	// differential suite proves it); the switch exists for A/B host-perf
	// measurement and as the safety net behind the fast path.
	ReferenceScheduler bool
	// WatchdogWindow, when positive, arms the simulator's commit-progress
	// watchdog: if no transaction commits on any core for this many
	// simulated cycles, the run fails with a diagnosable
	// sim.ProgressViolation instead of spinning forever.
	WatchdogWindow uint64
	// CycleBudget, when positive, is a hard per-run ceiling on the
	// simulated clock; exceeding it fails the run with a ProgressViolation.
	CycleBudget uint64
	// StallTimeout, when positive, arms the host-deadlock detector: if the
	// simulator grants no architectural operation for this much host wall
	// time, the run is declared wedged and fails with a report instead of
	// hanging the process. This is the only host-time-keyed knob; it never
	// affects simulated results, only whether a wedged run is cut short.
	StallTimeout time.Duration
	// RetryBudget, when positive, enables the irrevocable escalation
	// ladder on the transactional schemes: a transaction that aborts
	// RetryBudget times escalates to serial irrevocable mode (global token,
	// no abort path), which bounds retries under adversarial contention.
	// 0 leaves the ladder off — the standard figure configuration.
	RetryBudget int
	// Topology, when non-zero, sizes every machine at Sockets ×
	// CoresPerSocket cores with per-socket L2s, directory coherence and
	// NUMA latencies, independent of the cell's thread count; threads are
	// placed on cores by Mapping and must fit (threads ≤ total cores). The
	// zero value keeps the flat machine whose core count equals the thread
	// count. Topology{1, N} is byte-identical to the flat N-core machine
	// (the 1-socket equivalence suite asserts it).
	Topology sim.Topology
	// Mapping places threads onto a multi-socket Topology's cores:
	// MapCompact ("" or "compact", the default) fills sockets in core
	// order, MapScatter ("scatter") round-robins threads across sockets.
	// Irrelevant on a flat machine and at full occupancy, where the two
	// policies coincide.
	Mapping string
	// Placement picks the page→home-socket policy on a multi-socket
	// Topology: interleaved (default) or first-touch. A miss that reaches
	// memory on a remote-homed page pays the remote-memory latency.
	Placement mem.Placement
	// Chaos arms the native backend's fault-injection plane on native
	// cells: seeded stalls, preemption bursts, spurious commit aborts and
	// delayed wakeups at named commit-protocol points (the -chaos flag).
	// The zero value leaves the plane off. Simulator cells ignore it — the
	// CLI maps -chaos onto the simulator's own fault plane instead.
	Chaos native.ChaosSpec
}

// Thread-mapping policy names (Options.Mapping).
const (
	MapCompact = "compact"
	MapScatter = "scatter"
)

// ParseMapping normalises a thread-mapping policy name ("" means compact).
func ParseMapping(s string) (string, error) {
	switch s {
	case "", MapCompact:
		return MapCompact, nil
	case MapScatter:
		return MapScatter, nil
	default:
		return "", spec.Unknown("thread mapping", s, MapCompact, MapScatter)
	}
}

// machineCores returns the core count of the machine a cell with the given
// thread count runs on: the topology's total when one is set, else the
// thread count itself (the flat machine).
func (o Options) machineCores(threads int) int {
	if o.Topology == (sim.Topology{}) {
		return threads
	}
	return o.Topology.Sockets * o.Topology.CoresPerSocket
}

// threadCore returns the machine core hosting the given thread. Compact
// fills sockets in core order (thread t → core t); scatter deals threads
// round-robin across sockets (thread t → socket t mod S, next free core
// there). Thread 0 lands on core 0 under both policies, so the barrier
// core that resets statistics is mapping-independent.
func (o Options) threadCore(thread int) int {
	t := o.Topology
	if t.Sockets <= 1 || o.Mapping != MapScatter {
		return thread
	}
	return (thread%t.Sockets)*t.CoresPerSocket + thread/t.Sockets
}

// DefaultOptions returns the full-size evaluation parameters.
func DefaultOptions() Options {
	return Options{
		Ops:       2048,
		MicroTxns: 24,
		HashSlots: 4096,
		TreeKeys:  2048,
		Seed:      1,
	}
}

// QuickOptions returns reduced sizes for unit tests and testing.B benches.
func QuickOptions() Options {
	return Options{
		Ops:       384,
		MicroTxns: 8,
		HashSlots: 256,
		TreeKeys:  128,
		Seed:      1,
	}
}

// machineFor builds the standard simulated machine of the evaluation:
// 32 KB 8-way private L1s, a 512 KB 8-way shared inclusive L2, and the
// next-line prefetcher that §7.4 identifies as a source of destructive
// interference between cores. o contributes only host-side and ISA-mode
// switches (DefaultISA, ReferenceScheduler), never sizes. geometry, when
// non-nil, adjusts the configuration before the machine is built.
func machineFor(cores int, o Options, geometry func(*sim.Config)) *sim.Machine {
	cfg := sim.DefaultConfig(o.machineCores(cores))
	if o.Topology != (sim.Topology{}) {
		if cores > cfg.Cores {
			panic(fmt.Sprintf("harness: topology %s has %d cores, cell needs %d threads",
				o.Topology, cfg.Cores, cores))
		}
		cfg.Topology = o.Topology
		cfg.Placement = o.Placement
	}
	cfg.DefaultISA = o.DefaultISA
	cfg.ReferenceScheduler = o.ReferenceScheduler
	cfg.WatchdogWindow = o.WatchdogWindow
	cfg.CycleBudget = o.CycleBudget
	cfg.StallTimeout = o.StallTimeout
	cfg.L1 = cache.Config{SizeBytes: 32 << 10, Assoc: 8}
	// The shared inclusive L2 is deliberately smaller than the combined
	// footprint of the structures and the transaction-record table: the
	// §7.4 destructive interference (one core's misses and prefetches
	// back-invalidating another core's marked lines) requires L2
	// replacement pressure to exist at all.
	cfg.L2 = cache.Config{SizeBytes: 256 << 10, Assoc: 8}
	// The machine is identical at every core count — baselines must not
	// run on different hardware. The speculation noise (§7.4) only
	// disturbs OTHER cores, so it is naturally inert single-threaded.
	cfg.Prefetch = true
	cfg.SpecRFOEvery = 32
	if geometry != nil {
		geometry(&cfg)
	}
	return sim.New(cfg)
}

// Scheme names used throughout the harness.
const (
	SchemeSeq      = "seq"
	SchemeLock     = "lock"
	SchemeSTM      = "stm"
	SchemeHASTM    = "hastm"
	SchemeCautious = "hastm-cautious"
	SchemeNoReuse  = "hastm-noreuse"
	SchemeNaive    = "naive-aggressive"
	SchemeHyTM     = "hytm"
	SchemeHTM      = "htm"
	// SchemeLazy is the deferred-update STM: per-transaction write buffer,
	// commit-time ascending-order lock acquisition, sandboxed read-set
	// validation before write-back (package lazystm).
	SchemeLazy = "lazy"
	// SchemeMVCC is the multi-version variant of SchemeLazy: a commit clock
	// and per-location version history give read-only transactions an
	// abort-free snapshot read path.
	SchemeMVCC = "mvcc"

	// Schemes used only by the extension experiments.
	SchemeWFilter     = "hastm-wfilter"     // §5 write/undo-log filtering (plane 1)
	SchemeInterAtomic = "hastm-interatomic" // Fig 10 inter-atomic reuse
	SchemeObjHASTM    = "hastm-object"      // object-granularity HASTM
	SchemeObjSTM      = "stm-object"        // object-granularity base STM
	SchemeWatermark   = "hastm-watermark"   // watermark controller even single-threaded
	// SchemeIrrevocable is HASTM with the escalation ladder armed at a fixed
	// retry budget — the ext-irrevocable ablation's subject. On the standard
	// figure workloads the budget never trips, so it must match plain HASTM.
	SchemeIrrevocable = "hastm-irrevocable"
)

// IrrevocableDefaultBudget is the ladder budget the hastm-irrevocable
// scheme (and every cell that arms the ladder, Options.armed) uses when
// Options.RetryBudget is 0.
const IrrevocableDefaultBudget = 8

// named is one row of a name → constructor table: the only place a scheme's
// or a structure's name is bound to how it is built. Validation, the name
// lists and both CLIs read the tables.
type named[B any] struct {
	name  string
	build B
}

// names lists a table's names in table order.
func names[B any](table []named[B]) []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.name
	}
	return out
}

// lookup returns the constructor a table binds to name.
func lookup[B any](table []named[B], name string) (B, bool) {
	for _, e := range table {
		if e.name == name {
			return e.build, true
		}
	}
	var none B
	return none, false
}

// schemeBuilder instantiates a scheme on a machine. threads is the number of
// worker threads the run will use (the HASTM watermark controller treats
// single-threaded runs specially, §6); o contributes only the escalation
// ladder's retry budget, never sizes.
type schemeBuilder func(m *sim.Machine, threads int, o Options) tm.System

// stmConfig is the line-granularity software-TM configuration.
func stmConfig(o Options) tm.Config {
	cfg := tm.Config{Granularity: tm.LineGranularity, ValidateEvery: 128}
	cfg.Progress.RetryBudget = o.RetryBudget
	return cfg
}

// hastmConfig is the line-granularity HASTM configuration.
func hastmConfig(threads int, o Options) core.Config {
	cfg := core.DefaultConfig(tm.LineGranularity)
	cfg.SingleThread = threads == 1
	cfg.TM.Progress.RetryBudget = o.RetryBudget
	return cfg
}

var schemeTable = []named[schemeBuilder]{
	{SchemeSeq, func(m *sim.Machine, _ int, _ Options) tm.System { return locksync.NewSeq(m) }},
	{SchemeLock, func(m *sim.Machine, _ int, _ Options) tm.System { return locksync.NewLock(m) }},
	{SchemeSTM, func(m *sim.Machine, _ int, o Options) tm.System { return stm.New(m, stmConfig(o)) }},
	{SchemeHASTM, func(m *sim.Machine, threads int, o Options) tm.System {
		return core.New(m, hastmConfig(threads, o))
	}},
	{SchemeCautious, func(m *sim.Machine, threads int, o Options) tm.System {
		return core.NewCautious(m, hastmConfig(threads, o))
	}},
	{SchemeNoReuse, func(m *sim.Machine, threads int, o Options) tm.System {
		return core.NewNoReuse(m, hastmConfig(threads, o))
	}},
	{SchemeNaive, func(m *sim.Machine, threads int, o Options) tm.System {
		return core.NewNaiveAggressive(m, hastmConfig(threads, o))
	}},
	{SchemeHyTM, func(m *sim.Machine, _ int, o Options) tm.System { return htm.NewHyTM(m, stmConfig(o), 4) }},
	{SchemeHTM, func(m *sim.Machine, _ int, _ Options) tm.System { return htm.NewHTM(m) }},
	{SchemeLazy, func(m *sim.Machine, _ int, o Options) tm.System { return lazystm.New(m, stmConfig(o)) }},
	{SchemeMVCC, func(m *sim.Machine, _ int, o Options) tm.System { return lazystm.NewMVCC(m, stmConfig(o)) }},
	{SchemeWFilter, func(m *sim.Machine, threads int, o Options) tm.System {
		cfg := hastmConfig(threads, o)
		cfg.FilterWrites = true
		return core.NewNamed(SchemeWFilter, m, cfg)
	}},
	{SchemeInterAtomic, func(m *sim.Machine, threads int, o Options) tm.System {
		cfg := hastmConfig(threads, o)
		cfg.InterAtomic = true
		return core.NewNamed(SchemeInterAtomic, m, cfg)
	}},
	{SchemeObjHASTM, func(m *sim.Machine, threads int, _ Options) tm.System {
		cfg := core.DefaultConfig(tm.ObjectGranularity)
		cfg.SingleThread = threads == 1
		return core.NewNamed(SchemeObjHASTM, m, cfg)
	}},
	{SchemeObjSTM, func(m *sim.Machine, _ int, _ Options) tm.System {
		return stm.New(m, tm.Config{Granularity: tm.ObjectGranularity, ValidateEvery: 128})
	}},
	{SchemeWatermark, func(m *sim.Machine, threads int, o Options) tm.System {
		cfg := hastmConfig(threads, o)
		cfg.SingleThread = false // force the adaptive controller
		return core.NewNamed(SchemeWatermark, m, cfg)
	}},
	// Same hardware and policy as hastm plus a bounded retry budget; on
	// uncontended figure workloads the budget never trips, so this must cost
	// ~nothing — the ext-irrevocable ablation's claim.
	{SchemeIrrevocable, func(m *sim.Machine, threads int, o Options) tm.System {
		return core.NewNamed(SchemeIrrevocable, m, hastmConfig(threads, o.armed()))
	}},
}

// Schemes lists every scheme name, in table order.
func Schemes() []string { return names(schemeTable) }

// buildScheme instantiates a named scheme; an unknown name is a caller bug,
// since cells validate theirs first.
func buildScheme(name string, m *sim.Machine, threads int, o Options) tm.System {
	build, ok := lookup(schemeTable, name)
	if !ok {
		panic(fmt.Sprintf("harness: unknown scheme %q", name))
	}
	return build(m, threads, o)
}

// Structure names.
const (
	WorkloadHash   = "hashtable"
	WorkloadBST    = "bst"
	WorkloadBTree  = "btree"
	WorkloadObjBST = "objbst"
)

// structureBuilder lays a structure out on m, sized by o.
type structureBuilder func(m *mem.Memory, o Options) workloads.DataStructure

// structureTable: the §7.1 three, then the object-layout BST of the
// granularity extension.
var structureTable = []named[structureBuilder]{
	{WorkloadBST, func(m *mem.Memory, o Options) workloads.DataStructure { return workloads.NewBST(m, o.TreeKeys) }},
	{WorkloadHash, func(m *mem.Memory, o Options) workloads.DataStructure { return workloads.NewHashtable(m, o.HashSlots) }},
	{WorkloadBTree, func(m *mem.Memory, o Options) workloads.DataStructure { return workloads.NewBTree(m, o.TreeKeys) }},
	{WorkloadObjBST, func(m *mem.Memory, o Options) workloads.DataStructure { return workloads.NewObjBST(m, o.TreeKeys) }},
}

// StructureNames lists every structure a cell can name, in table order.
func StructureNames() []string { return names(structureTable) }

// Workloads lists the three §7.1 data structures.
func Workloads() []string { return StructureNames()[:3] }

// buildStructure lays a named structure out on m; an unknown name is a
// caller bug, since cells validate theirs first.
func buildStructure(name string, m *mem.Memory, o Options) workloads.DataStructure {
	build, ok := lookup(structureTable, name)
	if !ok {
		panic(fmt.Sprintf("harness: unknown workload %q", name))
	}
	return build(m, o)
}

// populated is buildStructure followed by the pre-run fill every cell starts
// from ("all the data structures were populated before the experimental
// run").
func populated(name string, m *mem.Memory, o Options) workloads.DataStructure {
	ds := buildStructure(name, m, o)
	ds.Populate(m, workloads.NewRand(o.Seed))
	return ds
}

// RunMetrics is the outcome of one measured run.
type RunMetrics struct {
	WallCycles uint64
	Stats      *telemetry.Machine // nil when the cell never ran
	CacheStats *cache.Hierarchy
	TxnTrace   *telemetry.TraceBuffer // non-nil when Options.TxnTraceMax > 0
	// Sched counts how the simulator scheduled the run's architectural
	// operations (granted ops vs channel handoffs). Host-side observability
	// only: deliberately outside Stats, because it legitimately
	// differs between the lease and reference schedulers while every
	// simulated result stays identical.
	Sched sim.SchedCounters
	// HostNS is the measured-phase host wall time of a native-backend run,
	// in nanoseconds. 0 on simulator runs (whose Cell.HostNS covers the
	// whole cell, populate and warmup included).
	HostNS int64
	// Backend names the backend that produced the run ("native-tl2"); ""
	// means the cycle-ordered simulator.
	Backend string
	// Service carries the open-loop service observations (latency
	// percentiles, offered rate, goodput, shed counts) of a service cell;
	// nil on every other run.
	Service *ServiceRecord
	// Topology is the machine shape the run executed on; the zero value
	// means the flat machine (no NUMA block in reports or JSON).
	Topology sim.Topology
	// Placement and Mapping echo the NUMA knobs of a multi-socket run for
	// report labelling; empty/zero on flat runs.
	Placement mem.Placement
	Mapping   string
	// Chaos is the native chaos plane's per-run report (spec, deterministic
	// schedule hash, planned/fired injection counts, watchdog violation if
	// any); nil unless the run was native with the plane armed.
	Chaos *ChaosRecord
}

// runStructure executes the standard data-structure benchmark: populate,
// then `o.Ops` operations (20% updates, as in the paper) split across
// `cores` threads under the named scheme.
func runStructure(scheme, workload string, cores int, o Options) RunMetrics {
	return must(RunOne(scheme, workload, cores, o, 20))
}

// RunOne runs a single configuration — the programmatic form of the tmsim
// command line. Every run starts with a warmup phase (caches filled, the
// HASTM mode controller settled) separated from the measured phase by a
// barrier; only steady-state cycles are reported, as a long benchmark run
// on real hardware would.
func RunOne(scheme, workload string, cores int, o Options, updatePct int) (RunMetrics, error) {
	c, err := newSimCell(simSpec{scheme: scheme, workload: workload, threads: cores, o: o})
	if err != nil {
		return RunMetrics{}, err
	}
	ds := c.structure()
	warmCfg := workloads.DriverConfig{Ops: o.warmupPerThread(cores), UpdatePercent: updatePct, Seed: o.Seed + 7777}
	cfg := workloads.DriverConfig{Ops: c.ops, UpdatePercent: updatePct, Seed: o.Seed}
	metrics, res := c.run(warmBarrier,
		func(_ *sim.Ctx, th tm.Thread, _ int) error { return workloads.RunThread(th, ds, warmCfg) },
		func(_ *sim.Ctx, th tm.Thread, _ int) error { return workloads.RunThread(th, ds, cfg) })
	return metrics, res.verdict(nil)
}

// must panics with a cell's failure. Figure cells that cannot return an
// error use it so a contained core panic or watchdog trip still fails the
// cell loudly (Cell.execute records it) instead of yielding a silently
// truncated result.
func must(m RunMetrics, err error) RunMetrics {
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	return m
}

// runMicroKernel executes the Fig 15 microbenchmark kernel single-threaded:
// four warm-up transactions bring the working region into the cache
// hierarchy and settle the mode controller, as in the paper's long-running
// critical regions, so the measured o.MicroTxns isolate barrier and
// validation overheads rather than compulsory misses. Fig 15 discards the
// warm-up's counters (warmStep); the extension kernels keep them (warmKept)
// and vary the store-reuse rate the paper holds at 40.
func runMicroKernel(scheme string, loadPct, loadReuse, storeReuse int, end warmEnd, o Options) (RunMetrics, error) {
	c, err := newSimCell(simSpec{scheme: scheme, threads: 1, o: o})
	if err != nil {
		return RunMetrics{}, err
	}
	// A region small enough to stay L1-resident: the paper's kernel
	// models intra-transaction locality, not capacity misses.
	mi := workloads.NewMicro(c.m.Mem, 256)
	mi.LoadPercent, mi.LoadReuse, mi.StoreReuse = loadPct, loadReuse, storeReuse
	r := workloads.NewRand(o.Seed)
	body := func(tx tm.Txn) error { return mi.Op(tx, r, false) }
	metrics, res := c.run(end, repeatAtomic(4, body), repeatAtomic(o.MicroTxns, body))
	return metrics, res.verdict(nil)
}

// repeatAtomic is a single-thread phase of n transactions over one body.
func repeatAtomic(n int, body func(tm.Txn) error) simThreadFunc {
	return func(_ *sim.Ctx, th tm.Thread, _ int) error {
		for i := 0; i < n; i++ {
			if err := th.Atomic(body); err != nil {
				return err
			}
		}
		return nil
	}
}
