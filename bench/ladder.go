package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"hastm.dev/hastm/internal/cache"
	"hastm.dev/hastm/internal/core"
	"hastm.dev/hastm/internal/harness"
	"hastm.dev/hastm/internal/lazystm"
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/native"
	"hastm.dev/hastm/internal/service"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/stm"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

// The ladder: one micro-benchmark per layer of the program, each a span (or
// a few) around a public call on crafted input, repeated round-robin like
// the cells and reduced by the same min-of-repetitions rule. Every rung
// checks that the layer did what the rung is named after (the hit stream
// hit, the transactions committed, the oracle agreed); a rung that cannot
// show that reports a failure instead of a time.

// ladderRun carries one ladder pass.
type ladderRun struct {
	tr    *tracer
	seed  uint64
	scale int // divides every count; 1 at full size
	fails []string
	// Values that are not span times: host-dependent ratios sampled once
	// per round, reduced by their median.
	sleepOvershootUS, defaultShedRatio []float64
	cyclesPerHostS                     []float64
}

func (l *ladderRun) n(count int) int { return max(count/l.scale, 8) }

func (l *ladderRun) failf(format string, args ...any) {
	if len(l.fails) < 8 {
		l.fails = append(l.fails, "ladder: "+fmt.Sprintf(format, args...))
	}
}

// runLadder repeats every rung round-robin until the budget is spent (at
// least three rounds), or for fixedRounds rounds when that is positive.
func runLadder(tr *tracer, seed uint64, budget time.Duration, fixedRounds, scale int) *ladderRun {
	l := &ladderRun{tr: tr, seed: seed, scale: scale}
	tr.workload = "ladder"
	defer func() { tr.workload, tr.rep = "", 0 }()
	// The rungs that run on one goroutine (or on simulated cores, which
	// take turns) first, at GOMAXPROCS 1 like the simulator workloads; then
	// the two-goroutine native rungs at 2.
	single := []func(){
		l.memRung, l.machineRung, l.populateRung, l.cellOverheadRung,
		l.cacheRungs, l.simOpRungs, l.simBarrierRungs, l.nativeBarrierRungs,
		l.structureRungs, l.serviceRungs,
	}
	double := []func(){l.nativeServiceRung, l.nativeSojournRung}
	rounds(budget, fixedRounds, func(round int) {
		tr.rep = round
		runtime.GOMAXPROCS(1)
		for _, r := range single {
			r()
		}
		runtime.GOMAXPROCS(maxWorkers)
		for _, r := range double {
			r()
		}
	})
	return l
}

// evalConfig is the evaluation's machine (harness.machineFor): 32 KiB L1s,
// a 256 KiB shared L2, next-line prefetch and the speculative-RFO noise.
func evalConfig(cores int) sim.Config {
	cfg := sim.DefaultConfig(cores)
	cfg.L2 = cache.Config{SizeBytes: 256 << 10, Assoc: 8}
	cfg.Prefetch = true
	cfg.SpecRFOEvery = 32
	return cfg
}

// memRung: raw loads and stores over a random 1 MiB working set.
func (l *ladderRun) memRung() {
	const region = 1 << 20
	m := mem.New()
	base := m.Alloc(region, mem.LineSize)
	r := workloads.NewRand(l.seed)
	addrs := make([]uint64, l.n(1<<18))
	for i := range addrs {
		addrs[i] = base + r.Intn(region/mem.WordSize)*mem.WordSize
	}
	l.tr.do("mem.store", int64(len(addrs)), func() {
		for i, a := range addrs {
			m.Store(a, uint64(i))
		}
	})
	var sum uint64
	l.tr.do("mem.load", int64(len(addrs)), func() {
		for _, a := range addrs {
			sum += m.Load(a)
		}
	})
	last := len(addrs) - 1
	if got := m.Load(addrs[last]); got != uint64(last) || sum == 0 {
		l.failf("mem: stored %d, loaded %d", last, got)
	}
}

func (l *ladderRun) machineRung() {
	const n = 8
	l.tr.do("sim.machine_new", n, func() {
		for i := 0; i < n; i++ {
			if sim.New(evalConfig(1)).Mem == nil {
				l.failf("sim.New returned a machine without memory")
			}
		}
	})
}

// populateRung: build and fill the three structures at evaluation size;
// the count is keys inserted.
func (l *ladderRun) populateRung() {
	o := harness.DefaultOptions()
	keys := int64(o.HashSlots/2 + 2*o.TreeKeys)
	type checked interface {
		workloads.DataStructure
		workloads.InvariantChecker
	}
	var built []checked
	var mems []*mem.Memory
	l.tr.do("workloads.populate", keys, func() {
		for _, s := range structures {
			m := mem.New()
			ds := newStructure(s, m).(checked)
			ds.Populate(m, workloads.NewRand(l.seed))
			built, mems = append(built, ds), append(mems, m)
		}
	})
	for i, ds := range built {
		if err := ds.CheckInvariants(mems[i]); err != nil {
			l.failf("populate %s: %v", ds.Name(), err)
		}
	}
}

// cellOverheadRung: the fixed cost of a harness cell — machine, scheme,
// populate, warm-up of one op, barrier, one measured op.
func (l *ladderRun) cellOverheadRung() {
	l.tr.do("harness.cell_overhead", 1, func() {
		m, err := harness.RunOne(harness.SchemeSeq, harness.WorkloadHash, 1, options(l.seed, 1, 1), 20)
		if err != nil || m.Stats.Commits() != 1 {
			l.failf("cell overhead: err %v", err)
		}
	})
}

// cacheRungs drive Hierarchy.Access with streams crafted to land in one
// level each, and hold the hierarchy's own counters against the intent.
func (l *ladderRun) cacheRungs() {
	l1 := cache.Config{SizeBytes: 32 << 10, Assoc: 8}
	l2 := cache.Config{SizeBytes: 256 << 10, Assoc: 8}
	n := l.n(200_000)
	// stream cycles over `lines` consecutive lines: a set that fits a
	// level always hits it after one pass; one that exceeds an LRU level
	// always misses it.
	stream := func(name string, lines int, counter func(h *cache.Hierarchy) uint64) {
		h := cache.New(cache.HierarchyConfig{Cores: 1, L1: l1, L2: l2})
		for i := 0; i < lines; i++ {
			h.Access(0, uint64(i)*mem.LineSize, false)
		}
		before := counter(h)
		l.tr.do(name, int64(n), func() {
			for i := 0; i < n; i++ {
				h.Access(0, uint64(i%lines)*mem.LineSize, false)
			}
		})
		if got := counter(h) - before; got != uint64(n) {
			l.failf("%s: %d of %d accesses landed where the rung aims", name, got, n)
		}
	}
	stream("cache.l1_hit", 64, func(h *cache.Hierarchy) uint64 { return h.L1Hits })
	stream("cache.l2_hit", 2048, func(h *cache.Hierarchy) uint64 { return h.L2Hits })
	stream("cache.miss", 32768, func(h *cache.Hierarchy) uint64 { return h.L2Misses })

	// Two cores write one line in turn: every store finds the line
	// invalidated and invalidates the other copy.
	h := cache.New(cache.HierarchyConfig{Cores: 2, L1: l1, L2: l2})
	h.Access(0, 0, true)
	before := h.Invalidations
	l.tr.do("cache.remote_inval", int64(n), func() {
		for i := 0; i < n; i++ {
			h.Access((i+1)%2, 0, true)
		}
	})
	if got := h.Invalidations - before; got != uint64(n) {
		l.failf("cache.remote_inval: %d invalidations for %d stores", got, n)
	}
}

// simOpRungs: Ctx.Load on a private resident line under Machine.Run. One
// core runs on a single lease; four cores interleave in cycle order and pay
// a goroutine handoff per leapfrog.
func (l *ladderRun) simOpRungs() {
	for _, cores := range []int{1, 4} {
		per := l.n(240_000) / cores
		if cores > 1 {
			per = l.n(24_000) / cores
		}
		m := sim.New(sim.DefaultConfig(cores))
		progs := make([]sim.Program, cores)
		for i := range progs {
			addr := m.Mem.AllocLines(1)
			progs[i] = func(c *sim.Ctx) {
				for n := 0; n < per; n++ {
					c.Load(addr)
				}
			}
		}
		var cycles uint64
		d, _ := l.tr.do(fmt.Sprintf("sim.op_%dcore", cores), int64(per*cores), func() { cycles = m.Run(progs...) })
		if err := m.CheckHealth(); err != nil || m.Sched().Grants < uint64(per*cores) {
			l.failf("sim ops %d cores: %d grants, err %v", cores, m.Sched().Grants, err)
		}
		if cores == 4 {
			l.cyclesPerHostS = append(l.cyclesPerHostS, float64(cycles)/d.Seconds())
		}
	}
}

// txnRung runs n transactions of one body on a thread and times them as a
// span opened inside the running program, after a short warm-up.
func (l *ladderRun) txnRung(name string, th tm.Thread, n int, body func(tm.Txn) error) {
	for i := 0; i < 4+n; i++ {
		if i == 4 {
			id := l.tr.begin(name, int64(n))
			defer l.tr.end(id)
		}
		if err := th.Atomic(body); err != nil {
			l.failf("%s: %v", name, err)
			return
		}
	}
}

const rungWords = 64 // words a barrier rung's body touches

func loadBody(base uint64, k int) func(tm.Txn) error {
	return func(tx tm.Txn) error {
		for i := 0; i < k; i++ {
			tx.Load(base + uint64(i)*mem.WordSize)
		}
		return nil
	}
}

func storeBody(base uint64, k int) func(tm.Txn) error {
	return func(tx tm.Txn) error {
		for i := 0; i < k; i++ {
			tx.Store(base+uint64(i)*mem.WordSize, uint64(i)+1)
		}
		return nil
	}
}

// simBarrierRungs: transaction bodies of 0 and 64 loads (and stores, on
// the base STM) through Thread.Atomic on one simulated core. The barrier
// costs come out by differencing in ladderMetrics.
func (l *ladderRun) simBarrierRungs() {
	cfg := tm.Config{Granularity: tm.LineGranularity, ValidateEvery: 128}
	systems := []struct {
		name  string
		build func(*sim.Machine) tm.System
		store bool
	}{
		{"stm", func(m *sim.Machine) tm.System { return stm.New(m, cfg) }, true},
		{"core", func(m *sim.Machine) tm.System {
			c := core.DefaultConfig(tm.LineGranularity)
			c.SingleThread = true
			return core.New(m, c)
		}, false},
		{"lazystm", func(m *sim.Machine) tm.System { return lazystm.New(m, cfg) }, false},
	}
	bodies := []struct {
		kind      string
		n         int
		body      func(base uint64) func(tm.Txn) error
		storeOnly bool // only on the system whose write barrier has a metric
	}{
		{"txn0", l.n(16_000), func(b uint64) func(tm.Txn) error { return loadBody(b, 0) }, false},
		{"load64", l.n(1_600), func(b uint64) func(tm.Txn) error { return loadBody(b, rungWords) }, false},
		{"store64", l.n(1_600), func(b uint64) func(tm.Txn) error { return storeBody(b, rungWords) }, true},
	}
	for _, s := range systems {
		for _, b := range bodies {
			if b.storeOnly && !s.store {
				continue
			}
			m := sim.New(sim.DefaultConfig(1))
			sys := s.build(m)
			base := m.Mem.Alloc(rungWords*mem.WordSize, mem.LineSize)
			name := s.name + "." + b.kind
			m.Run(func(c *sim.Ctx) { l.txnRung(name, sys.Thread(c), b.n, b.body(base)) })
			if err := m.CheckHealth(); err != nil || m.Stats.Commits() != uint64(4+b.n) {
				l.failf("%s: %d commits of %d, err %v", name, m.Stats.Commits(), 4+b.n, err)
			}
			if b.kind == "store64" && m.Mem.Load(base+(rungWords-1)*mem.WordSize) != rungWords {
				l.failf("%s: stores not visible after commit", name)
			}
		}
	}
}

// nativeBarrierRungs: the same bodies on the host TL2 backend, plus a
// one-store body whose extra cost over the empty transaction is what it
// takes to commit as a writer (lock, clock increment, write-back).
func (l *ladderRun) nativeBarrierRungs() {
	bodies := []struct {
		kind string
		n    int
		body func(base uint64) func(tm.Txn) error
	}{
		{"txn0", l.n(40_000), func(b uint64) func(tm.Txn) error { return loadBody(b, 0) }},
		{"load64", l.n(8_000), func(b uint64) func(tm.Txn) error { return loadBody(b, rungWords) }},
		{"store1", l.n(40_000), func(b uint64) func(tm.Txn) error { return storeBody(b, 1) }},
		{"store64", l.n(4_000), func(b uint64) func(tm.Txn) error { return storeBody(b, rungWords) }},
	}
	for _, b := range bodies {
		m := mem.New()
		base := m.Alloc(rungWords*mem.WordSize, mem.LineSize)
		sys := native.New(m, native.Config{Threads: 1})
		name := "native." + b.kind
		l.txnRung(name, sys.Thread(0), b.n, b.body(base))
		if err := sys.CheckHealth(); err != nil || sys.Stats().Commits() != uint64(4+b.n) {
			l.failf("%s: %d commits of %d, err %v", name, sys.Stats().Commits(), 4+b.n, err)
		}
	}
}

// structureRungs: one goroutine of lookups, then of updates, per structure
// on the native backend, each operation its own transaction.
func (l *ladderRun) structureRungs() {
	for _, s := range structures {
		m := mem.New()
		ds := newStructure(s, m)
		ds.Populate(m, workloads.NewRand(l.seed))
		sys := native.New(m, native.Config{Threads: 1})
		th := sys.Thread(0)
		r := workloads.NewRand(l.seed + 1)
		for _, k := range []struct {
			kind   string
			n      int
			update bool
		}{{"lookup", l.n(maxNativeOps), false}, {"update", l.n(maxNativeOps / 2), true}} {
			l.txnRung("workloads."+s+"_"+k.kind, th, k.n, func(tx tm.Txn) error { return ds.Op(tx, r, k.update) })
		}
		if err := ds.(workloads.InvariantChecker).CheckInvariants(m); err != nil {
			l.failf("structure %s: %v", s, err)
		}
	}
}

// bankConfig is the service cells' bank (harness.ServiceConfig at default
// options).
func bankConfig() service.BankConfig {
	return harness.ServiceConfig(harness.DefaultOptions(), serviceCores, 0, serviceZipf, service.AdmissionConfig{}).Bank
}

// serviceRungs: the per-request pieces of the service path on their own.
func (l *ladderRun) serviceRungs() {
	bc := bankConfig()
	r := workloads.NewRand(l.seed)

	z := service.NewZipf(bc.Keys, bc.ZipfS)
	n := l.n(400_000)
	var sum uint64
	l.tr.do("service.zipf_next", int64(n), func() {
		for i := 0; i < n; i++ {
			sum += z.Next(r)
		}
	})

	m := mem.New()
	bank := service.NewBank(m, bc)
	bank.Populate(m, r)
	n = l.n(200_000)
	writes := 0
	l.tr.do("service.classify", int64(n), func() {
		for i := 0; i < n; i++ {
			if _, w := bank.Classify(l.seed + uint64(i)); w {
				writes++
			}
		}
	})
	// 40% of the mix are transfers; a classifier far off that is broken.
	if share := float64(writes) / float64(n); share < 0.3 || share > 0.5 {
		l.failf("service.classify: %.2f of requests write, want 0.40", share)
	}

	var h service.Histogram
	n = l.n(800_000)
	l.tr.do("service.histogram_record", int64(n), func() {
		for i := 0; i < n; i++ {
			h.Record(uint64(i) * 2654435761 % 1_000_000)
		}
	})
	if h.Total() != uint64(n) || sum == 0 {
		l.failf("service.histogram: recorded %d of %d", h.Total(), n)
	}

	sys := native.New(m, native.Config{Threads: 1})
	i := uint64(0)
	l.txnRung("service.bank_op", sys.Thread(0), l.n(maxNativeOps), func(tx tm.Txn) error {
		i++
		return bank.Op(tx, workloads.NewRand(l.seed^i*0x9e3779b97f4a7c15), false)
	})
	if err := bank.CheckInvariants(m); err != nil {
		l.failf("service.bank_op: %v", err)
	}
}

// nativeServiceRung is the native service cell at saturation, composed by
// the benchmark from the public pieces so each gets its own span: no
// pacing (MeanGap 0), admission and degrade off, two goroutines.
func (l *ladderRun) nativeServiceRung() {
	const threads = 2
	sc := service.Config{Bank: bankConfig(), Requests: l.n(8_000), Warmup: l.n(2_000), Seed: l.seed}
	tr := l.tr
	id := tr.begin("service.native_cell", int64(sc.Requests*threads))
	defer tr.end(id)

	m := mem.New()
	var bank *service.Bank
	tr.do("service.NewBank", 1, func() { bank = service.NewBank(m, sc.Bank) })
	tr.do("service.Bank.Populate", int64(sc.Bank.Keys), func() { bank.Populate(m, workloads.NewRand(sc.Seed)) })
	var sys *native.System
	tr.do("native.New", 1, func() {
		sys = native.New(m, native.Config{Threads: threads})
		for g := 0; g < threads; g++ {
			sys.Thread(g)
		}
	})
	errs := make([]error, threads)
	each := func(f func(id int) error) {
		var wg sync.WaitGroup
		for g := 0; g < threads; g++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				if errs[id] == nil {
					errs[id] = f(id)
				}
			}(g)
		}
		wg.Wait()
	}
	tr.do("service.RunWarmup", int64(sc.Warmup*threads), func() {
		each(func(id int) error { return service.RunWarmup(sys.Thread(id), bank, sc) })
	})
	log := workloads.NewOpLog()
	per := make([]service.CellMetrics, threads)
	// The count is requests per goroutine: the goroutines run side by
	// side, so the span's time per count is one goroutine's cost per
	// request, comparable with service.bank_op.
	tr.do("service.RunCoreNative", int64(sc.Requests), func() {
		each(func(id int) error { return service.RunCoreNative(sys.Thread(id), bank, sc, &per[id], log) })
	})
	for g, err := range errs {
		if err != nil {
			l.failf("native service goroutine %d: %v", g, err)
		}
	}
	if got := per[0].Committed + per[1].Committed; got != uint64(sc.Requests*threads) {
		l.failf("native service committed %d of %d", got, sc.Requests*threads)
	}
	tr.do("workloads.VerifyOracle", int64(log.Len()), func() {
		bcfg := sc.Bank
		_, err := workloads.VerifyOracle(bank, m, func(m2 *mem.Memory) workloads.DataStructure {
			return service.NewBank(m2, bcfg)
		}, sc.Seed, log)
		if err != nil {
			l.failf("native service oracle: %v", err)
		}
	})
}

// nativeSojournRung samples the two figures that explain why native
// sojourn percentiles are not gated: how far time.Sleep pacing oversleeps
// a 200 us gap, and how much of the load the default 20 us shed budget
// then refuses. Informational; a later issue owns the fix.
func (l *ladderRun) nativeSojournRung() {
	const threads = 2
	o := options(l.seed, l.n(400), 64)
	sc := harness.ServiceConfig(o, threads, 200_000, serviceZipf, service.AdmissionConfig{})
	sc.Degrade = service.DegradeConfig{}
	var m harness.RunMetrics
	var err error
	l.tr.do("harness.RunOneServiceNative.paced", int64(o.Ops), func() { m, err = harness.RunOneServiceNative(threads, sc, o) })
	if err != nil || m.Service == nil || m.Service.Shed != 0 {
		l.failf("native sojourn: %v", err)
		return
	}
	l.sleepOvershootUS = append(l.sleepOvershootUS, float64(m.Service.LatencyP50)/1e3)

	o = options(l.seed, l.n(4_000), 64)
	sc = harness.ServiceConfig(o, threads, 20_000, serviceZipf, harness.DefaultAdmission())
	l.tr.do("harness.RunOneServiceNative.default", int64(o.Ops), func() { m, err = harness.RunOneServiceNative(threads, sc, o) })
	if err != nil || m.Service == nil || m.Service.Offered == 0 {
		l.failf("native default admission: %v", err)
		return
	}
	l.defaultShedRatio = append(l.defaultShedRatio, float64(m.Service.Shed)/float64(m.Service.Offered))
}

// ladderMetrics reduces the ladder's spans to its per-layer metrics.
func ladderMetrics(l *ladderRun) map[string]float64 {
	tr := l.tr
	out := map[string]float64{}
	direct := map[string]string{
		"mem.load_ns": "mem.load", "mem.store_ns": "mem.store",
		"sim.machine_new_ns": "sim.machine_new", "workloads.populate_ns": "workloads.populate",
		"harness.cell_overhead_ns": "harness.cell_overhead",
		"cache.l1_hit_ns":          "cache.l1_hit", "cache.l2_hit_ns": "cache.l2_hit",
		"cache.miss_ns": "cache.miss", "cache.remote_inval_ns": "cache.remote_inval",
		"sim.op_ns_1core": "sim.op_1core", "sim.op_ns_4core": "sim.op_4core",
		"stm.commit_ns": "stm.txn0", "core.commit_ns": "core.txn0", "lazystm.commit_ns": "lazystm.txn0",
		"native.empty_txn_ns":               "native.txn0",
		"service.zipf_next_ns":              "service.zipf_next",
		"service.classify_ns":               "service.classify",
		"service.bank_op_ns":                "service.bank_op",
		"service.native_sat_ns_per_req":     "service.RunCoreNative",
		"service.histogram_record_ns":       "service.histogram_record",
		"workloads.oracle_verify_ns_per_op": "workloads.VerifyOracle",
	}
	for metric, spanName := range direct {
		out[metric] = tr.minPerOp(spanName)
	}
	for _, s := range structures {
		out["workloads."+s+"_lookup_ns"] = tr.minPerOp("workloads." + s + "_lookup")
		out["workloads."+s+"_update_ns"] = tr.minPerOp("workloads." + s + "_update")
	}
	// A barrier costs what a body of 64 of them adds to the empty
	// transaction, per access.
	per := func(sys, kind, base string, k float64) float64 {
		return (tr.minPerOp(sys+"."+kind) - tr.minPerOp(sys+"."+base)) / k
	}
	out["stm.read_barrier_ns"] = per("stm", "load64", "txn0", rungWords)
	out["stm.write_barrier_ns"] = per("stm", "store64", "txn0", rungWords)
	out["core.read_barrier_ns"] = per("core", "load64", "txn0", rungWords)
	out["lazystm.read_barrier_ns"] = per("lazystm", "load64", "txn0", rungWords)
	out["native.read_barrier_ns"] = per("native", "load64", "txn0", rungWords)
	out["native.write_barrier_ns"] = per("native", "store64", "store1", rungWords-1)
	out["native.writer_commit_ns"] = per("native", "store1", "txn0", 1)
	out["service.request_overhead_ns"] = out["service.native_sat_ns_per_req"] - out["service.bank_op_ns"]
	out["sim.cycles_per_host_s"] = median(l.cyclesPerHostS)
	out["service.native_sleep_overshoot_us"] = median(l.sleepOvershootUS)
	out["service.native_default_shed_ratio"] = median(l.defaultShedRatio)
	return out
}
