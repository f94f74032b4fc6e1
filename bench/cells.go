package main

import (
	"encoding/json"
	"fmt"
	"sync"

	"hastm.dev/hastm/internal/faults"
	"hastm.dev/hastm/internal/harness"
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/native"
	"hastm.dev/hastm/internal/service"
	"hastm.dev/hastm/internal/workloads"
)

// cell is one public call of the program, the unit the estimator repeats.
type cell struct {
	name string
	// Tags the reports group by; empty where they do not apply.
	scheme, structure string
	threads           int    // simulated cores or host goroutines
	gap               uint64 // service cells: mean inter-arrival gap, cycles

	workers  int // host goroutines that compute at the same time
	ops      int // operations one call attempts
	setupOps int // operations of the set-up variant: one per thread

	// call runs the cell with n operations in its measured phase and the
	// full cell's explicit Warmup; call(ops) is the cell, call(setupOps)
	// its set-up: machine, populate, warm-up, barrier, one op per thread.
	call func(n int) (harness.RunMetrics, error)
	// verify is an untimed, independent check of the same configuration
	// against the sequential oracle; nil where call replays the oracle
	// itself (service cells).
	verify func() error

	native bool // host backend: nothing but the commit count repeats
	// exactOnly cells feed the exact metrics and are left out of the timed
	// sums; they run twice, enough to assert that they repeat.
	exactOnly bool
	// mayShed marks a rung of the load ladder: it runs under the default
	// admission control, whose refusing requests past saturation is the
	// designed outcome and what the ladder is there to find. Its shed
	// requests are reported as shed, not as failed.
	mayShed bool
}

// sizes scales the workloads; quick is the smoke-test size.
type sizes struct {
	sim1Ops, sim4Ops, nativeOps, rungReqs, latencyReqs int
}

var (
	fullSizes = sizes{sim1Ops: 1024, sim4Ops: 256, nativeOps: maxNativeOps, rungReqs: 2048, latencyReqs: 8192}
	// The quick size keeps every mechanism (warm-up, barrier, admission,
	// oracle) and shrinks only the counts.
	quickSizes = sizes{sim1Ops: 64, sim4Ops: 32, nativeOps: 400, rungReqs: 128, latencyReqs: 256}
)

// maxNativeOps caps a native cell's operations per goroutine:
// harness.RunOneNative fixes the transactional arena at 4 MiB and a
// 200 000-op, 80 %-update BST cell exhausts it ("native: arena exhausted").
const maxNativeOps = 20_000

const (
	serviceCores  = 4
	serviceZipf   = 0.9
	serviceScheme = "stm"
	// sloP99Cycles is the latency limit of the load ladder.
	sloP99Cycles = 4096
	// timedRungs is how many rungs of gapLadder, from the lightest, are also
	// timed cells; the heavier ones are past saturation at some seed.
	timedRungs = 4
)

func options(seed uint64, ops, warmup int) harness.Options {
	o := harness.DefaultOptions()
	o.Seed, o.Ops, o.Warmup = seed, ops, warmup
	return o
}

// warmupFor is the harness's default warm-up for a cell of the given size,
// made explicit so the set-up variant warms up exactly as the cell does.
func warmupFor(ops int) int { return max(ops/4, 64) }

func simCell(scheme, structure string, cores, ops int, seed uint64) cell {
	const updatePct = 20 // the paper's mix
	return cell{
		name:   fmt.Sprintf("%s/%s/%dc", scheme, structure, cores),
		scheme: scheme, structure: structure, threads: cores,
		workers: 1, ops: ops, setupOps: cores,
		call: func(n int) (harness.RunMetrics, error) {
			return harness.RunOne(scheme, structure, cores, options(seed, n, warmupFor(ops)), updatePct)
		},
		verify: func() error {
			rep, err := harness.FaultedRun(scheme, structure, cores, options(seed, ops, 0), faults.Spec{}, updatePct)
			if err != nil {
				return err
			}
			if rep.Err != "" {
				return fmt.Errorf("oracle: %s", rep.Err)
			}
			if rep.Committed != ops/cores*cores {
				return fmt.Errorf("oracle run committed %d of %d ops", rep.Committed, ops/cores*cores)
			}
			return nil
		},
	}
}

func nativeCell(structure string, threads, ops, updatePct int, seed uint64) cell {
	return cell{
		name:      fmt.Sprintf("native/%s/%dg/u%d", structure, threads, updatePct),
		structure: structure, threads: threads, native: true,
		workers: threads, ops: ops * threads, setupOps: threads,
		call: func(n int) (harness.RunMetrics, error) {
			// RunOneNative gives every goroutine the full o.Ops.
			return harness.RunOneNative(structure, threads, options(seed, n/threads, warmupFor(ops)), updatePct)
		},
		verify: func() error { return verifyNative(structure, threads, ops, updatePct, seed) },
	}
}

// serviceCell is one open-loop run of the bank service. A ladder cell runs
// under the service figure's admission control and degrade ladder, which
// refuse requests once the queue outgrows their budgets; it is left out of
// the timed sums. Every other cell serves all it is offered: queue-delay
// shedding and the degrade ladder are off and writes to a hot key are
// serialized, never shed, so no request is refused at any seed. (With the
// defaults the 512-cycle rung sheds at 2 seeds of 300, when a convoy behind
// a serialized hot key trips the degrade ladder.)
func serviceCell(gap uint64, requests int, seed uint64, exactOnly, ladder bool) cell {
	name := fmt.Sprintf("service/g%d/%dreq", gap, requests)
	if ladder {
		name += "/ladder"
	}
	return cell{
		name: name, scheme: serviceScheme, structure: "bank", threads: serviceCores, gap: gap,
		workers: 1, ops: requests, setupOps: serviceCores,
		exactOnly: exactOnly, mayShed: ladder,
		call: func(n int) (harness.RunMetrics, error) {
			o := options(seed, n, warmupFor(requests))
			adm := harness.DefaultAdmission()
			if !ladder {
				adm.ShedAfterCycles = 0
			}
			sc := harness.ServiceConfig(o, serviceCores, gap, serviceZipf, adm)
			if !ladder {
				sc.Degrade = service.DegradeConfig{}
			}
			return harness.RunOneServiceScheme(serviceScheme, serviceCores, sc, o)
		},
	}
}

// newStructure builds one of the paper's structures at the evaluation's
// default size.
func newStructure(name string, m *mem.Memory) workloads.DataStructure {
	o := harness.DefaultOptions()
	switch name {
	case harness.WorkloadHash:
		return workloads.NewHashtable(m, o.HashSlots)
	case harness.WorkloadBST:
		return workloads.NewBST(m, o.TreeKeys)
	case harness.WorkloadBTree:
		return workloads.NewBTree(m, o.TreeKeys)
	}
	panic(fmt.Sprintf("bench: unknown structure %q", name))
}

// verifyNative reruns a native cell's configuration with every committed
// operation logged and replays the log through the sequential oracle (TL2
// write versions are valid serialization stamps).
func verifyNative(structure string, threads, ops, updatePct int, seed uint64) error {
	m := mem.New()
	build := func(m *mem.Memory) workloads.DataStructure { return newStructure(structure, m) }
	ds := build(m)
	ds.Populate(m, workloads.NewRand(seed))
	sys := native.New(m, native.Config{Threads: threads})
	for g := 0; g < threads; g++ {
		sys.Thread(g)
	}
	log := workloads.NewOpLog()
	errs := make([]error, threads)
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cfg := workloads.DriverConfig{Ops: ops, UpdatePercent: updatePct, Seed: seed}
			errs[id] = workloads.RunThreadRecorded(sys.Thread(id), ds, cfg, log)
		}(g)
	}
	wg.Wait()
	if err := sys.CheckHealth(); err != nil {
		return err
	}
	for id, err := range errs {
		if err != nil {
			return fmt.Errorf("thread %d: %w", id, err)
		}
	}
	if log.Len() != ops*threads {
		return fmt.Errorf("oracle run committed %d of %d ops", log.Len(), ops*threads)
	}
	_, err := workloads.VerifyOracle(ds, m, build, seed, log)
	return err
}

// signature renders everything about a simulated run that must repeat
// exactly: the clock, every counter, the scheduler's grant counts and the
// service record. Host times are left out.
func signature(m harness.RunMetrics) string {
	doc := struct {
		Wall    uint64
		Totals  any
		L1H     uint64
		L1M     uint64
		L2H     uint64
		L2M     uint64
		Inval   uint64
		Evict   uint64
		Sched   any
		Service any
	}{Wall: m.WallCycles, Sched: m.Sched, Service: m.Service}
	if m.Stats != nil {
		doc.Totals = m.Stats.Totals()
	}
	if c := m.CacheStats; c != nil {
		doc.L1H, doc.L1M, doc.L2H, doc.L2M = c.L1Hits, c.L1Misses, c.L2Hits, c.L2Misses
		doc.Inval, doc.Evict = c.Invalidations, c.Evictions
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return string(b)
}

// workload is one set of inputs; Why records what it isolates.
type workload struct {
	Name  string
	Why   string
	cells func(seed uint64, z sizes) []cell
}

var workloadTable = []workload{
	{
		Name: "sim-1core",
		Why:  "Fig 16 shape: one core, 7 schemes x 3 structures; mem, cache, barrier, commit do all the work and the scheduler pays no handoffs",
		cells: func(seed uint64, z sizes) []cell {
			var cs []cell
			for _, s := range simSchemes {
				for _, w := range structures {
					cs = append(cs, simCell(s, w, 1, z.sim1Ops, seed))
				}
			}
			return cs
		},
	},
	{
		Name: "sim-4core",
		Why:  "four contended cores leapfrog one op per lease, so scheduler handoff and coherence dominate and barrier cost is a minor share",
		cells: func(seed uint64, z sizes) []cell {
			var cs []cell
			for _, s := range contendSchemes {
				for _, w := range []string{"bst", "hashtable"} {
					cs = append(cs, simCell(s, w, 4, z.sim4Ops, seed))
				}
			}
			return cs
		},
	},
	{
		Name:  "native-read",
		Why:   "host TL2 at 5% updates: read-only fast path and read-set validation; commit clock and stripe locks nearly idle",
		cells: func(seed uint64, z sizes) []cell { return nativeCells(seed, z, 5) },
	},
	{
		Name:  "native-write",
		Why:   "the same native cells at 80% updates: lock acquisition, write-back, clock increment, conflict aborts and backoff",
		cells: func(seed uint64, z sizes) []cell { return nativeCells(seed, z, 80) },
	},
	{
		Name: "service-open",
		Why:  "open-loop bank service on 4 simulated cores, Zipf 0.9: generator, admission, histogram and oracle replay; arrivals on the simulated clock so latency is exact",
		cells: func(seed uint64, z sizes) []cell {
			var cs []cell
			for _, g := range gapLadder[:timedRungs] {
				cs = append(cs, serviceCell(g, z.rungReqs, seed, false, false))
			}
			for _, g := range gapLadder {
				cs = append(cs, serviceCell(g, z.rungReqs, seed, true, true))
			}
			// The latency cell: the lightest rung with enough requests for
			// an exact p99 (80 samples beyond it).
			return append(cs, serviceCell(gapLadder[0], z.latencyReqs, seed, true, false))
		},
	},
}

func nativeCells(seed uint64, z sizes, updatePct int) []cell {
	var cs []cell
	for _, w := range structures {
		for _, g := range []int{1, 2} {
			cs = append(cs, nativeCell(w, g, z.nativeOps, updatePct, seed))
		}
	}
	return cs
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadTable {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
