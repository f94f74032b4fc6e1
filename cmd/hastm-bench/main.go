// Command hastm-bench regenerates the paper's evaluation figures.
//
// Usage:
//
//	hastm-bench               # run every figure at full size
//	hastm-bench -fig fig16    # one figure
//	hastm-bench -quick        # reduced sizes (seconds instead of minutes)
//	hastm-bench -ops 4096     # override the total operation count
//	hastm-bench -j 8          # run independent experiment cells on 8 workers
//	hastm-bench -json         # machine-readable report (schema hastm-bench/9)
//	hastm-bench -progress     # per-cell progress on stderr
//	hastm-bench -trace t.jsonl  # per-transaction JSONL event trace
//	hastm-bench -list         # list experiment ids
//	hastm-bench -sched reference
//	                          # run on the simulator's per-op handoff
//	                          # scheduler instead of the grant lease
//	                          # (identical reports, slower host time)
//	hastm-bench -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	                          # write pprof profiles of the run
//	hastm-bench -faults suspend=900,evict=600,seed=3
//	                          # fault-injection conformance sweep instead
//	                          # of figures: every scheme × structure runs
//	                          # under the injected fault mix and is checked
//	                          # against the sequential oracle (exit 1 on
//	                          # any violation)
//	hastm-bench -adversarial all
//	                          # progress-guarantee suite instead of figures:
//	                          # livelock/starvation cells that require the
//	                          # irrevocable escalation ladder to finish
//	hastm-bench -adversarial storm -no-ladder
//	                          # prove the pathology: same cells with the
//	                          # ladder disarmed; the watchdog reports a
//	                          # ProgressViolation and the exit code is 1
//	hastm-bench -cycle-budget 2000000000 -watchdog-window 50000000
//	                          # progress watchdogs for figure runs: a hard
//	                          # per-run cycle budget and a commit-progress
//	                          # window (0 disables either); a trip fails the
//	                          # cell with a structured diagnosis instead of
//	                          # hanging the harness
//	hastm-bench -backend native -chaos stall=200,abort=150,wakedelay=100,seed=3
//	                          # native chaos storm: every structure runs the
//	                          # content-commutative differential mix on host
//	                          # goroutines while the chaos plane injects
//	                          # stalls, preemptions, spurious commit aborts
//	                          # and delayed wakeups at commit-protocol
//	                          # points, with the host watchdogs scanning;
//	                          # each cell oracle-replays its committed ops
//	                          # and must fingerprint-match a chaos-free twin
//	                          # (exit 1 on any violation). The planned
//	                          # schedule hash is deterministic per spec.
//	                          # On the sim backend -chaos maps onto the
//	                          # simulator fault plane (stall→suspend,
//	                          # preempt→evict, wakedelay→snoop,
//	                          # abort→htmabort) and runs the faultstorm
//	hastm-bench -backend native
//	                          # run the host-native TL2 backend instead of
//	                          # the simulator: every workload swept over
//	                          # 1..32 host goroutines on real memory,
//	                          # reporting committed txns/sec (host numbers,
//	                          # NOT deterministic, never comparable to the
//	                          # simulated figures); cells run serially so
//	                          # they don't steal each other's cores
//	hastm-bench -service
//	                          # open-loop service suite instead of figures:
//	                          # the bank/KV service cell under a seeded
//	                          # Zipfian arrival process, swept over offered
//	                          # load and key skew; reports sojourn-latency
//	                          # percentiles, goodput and admission-control
//	                          # shed counts. On the sim backend arrivals are
//	                          # scheduled in simulated cycles (byte-identical
//	                          # across -j and -sched); with -backend native
//	                          # arrivals are paced on the host clock and
//	                          # latencies are host nanoseconds
//
// Reports go to stdout, diagnostics (progress, timing, the per-figure
// simulation-throughput summary) to stderr. Every simulation cell runs on
// its own private simulated machine, so reports are bit-identical for
// every -j value and for both -sched settings: parallelism and scheduling
// strategy change only the host wall-clock, never the science. The -trace
// file is written after all cells complete, in cell declaration order, so
// it too is byte-identical for every -j value; analyse it with
// cmd/traceanalyze.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hastm.dev/hastm/internal/faults"
	"hastm.dev/hastm/internal/harness"
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/native"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
)

// faultCores is the simulated core count of every cell in the -faults
// sweep: enough for real contention, small enough that the full scheme ×
// structure matrix stays quick.
const faultCores = 4

// adversarialCores is the core count of the -adversarial progress suite:
// the pathologies (mutual-abort storms, reader starvation) need several
// cores colliding, and four keeps the suite deterministic and fast.
const adversarialCores = 4

// execute runs the plans' cells on the worker pool — per-cell completion
// lines to progress when it is non-nil — and times the run.
func execute(plans []*harness.Plan, workers int, progress *telemetry.SyncWriter) ([]*harness.Report, time.Duration) {
	start := time.Now()
	reports := harness.Execute(plans, harness.ExecConfig{Workers: workers, ProgressSync: progress})
	return reports, time.Since(start)
}

// progressWriter is the -progress destination: stderr, or nil when off.
func progressWriter(on bool) *telemetry.SyncWriter {
	if !on {
		return nil
	}
	return telemetry.NewSyncWriter(os.Stderr)
}

// emit writes the reports to stdout in the selected format and returns the
// exit status of doing so.
func emit(o harness.Options, workers int, plans []*harness.Plan, reports []*harness.Report, elapsed time.Duration, jsonF, csvF bool) int {
	switch {
	case jsonF:
		if err := harness.NewBenchJSON(o, workers, plans, reports, elapsed).Write(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "hastm-bench: json: %v\n", err)
			return 1
		}
	case csvF:
		for _, rep := range reports {
			if err := rep.RenderCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "hastm-bench: csv: %v\n", err)
				return 1
			}
		}
	default:
		for _, rep := range reports {
			rep.Render(os.Stdout)
		}
	}
	return 0
}

// writeTrace dumps every cell's transaction trace to the -trace destination
// ('-' shares stderr's mutex-guarded writer with the progress lines, so the
// two can never interleave mid-line) and returns the exit status.
func writeTrace(dest string, plans []*harness.Plan, stderrSync *telemetry.SyncWriter) int {
	tw := stderrSync
	var f *os.File
	if dest != "-" {
		var err error
		if f, err = os.Create(dest); err != nil {
			fmt.Fprintf(os.Stderr, "hastm-bench: trace: %v\n", err)
			return 1
		}
		tw = telemetry.NewSyncWriter(f)
	}
	written, dropped, err := harness.WriteTxnTraces(plans, tw)
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hastm-bench: trace: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "hastm-bench: trace: %d events written, %d dropped\n", written, dropped)
	return 0
}

// reportFailed prints every failed cell's diagnosis and returns how many
// there were. A cell that tripped a watchdog or contained a core panic
// carries its diagnosis in Cell.Err (and in the JSON report); the run must
// fail loudly rather than publish figures with silently missing cells.
func reportFailed(plans []*harness.Plan) int {
	failed := harness.FailedCells(plans)
	for _, c := range failed {
		fmt.Fprintf(os.Stderr, "hastm-bench: cell %s/%s FAILED:\n%s\n", c.Figure, c.Label, c.Err)
	}
	return len(failed)
}

// finishSweep closes a verdict suite (-faults, -adversarial, -chaos): the
// cells/failed footer after the table, the host time on stderr, exit status
// 1 if any cell failed its verdict.
func finishSweep(name string, cells, failures int, table bool, elapsed time.Duration, how string) int {
	if table {
		fmt.Printf("\n%s: %d cells, %d failed\n", name, cells, failures)
	}
	fmt.Fprintf(os.Stderr, "hastm-bench: %s %d cells in %v (%s)\n", name, cells, elapsed.Round(time.Millisecond), how)
	if failures > 0 {
		return 1
	}
	return 0
}

// runAdversarial runs the progress-guarantee suite: adversarial cells
// that livelock or starve unless the irrevocable escalation ladder is
// armed. With the ladder on (the default), every cell must complete and
// verify; with -no-ladder the watchdogs turn the pathologies into
// structured ProgressViolation reports and a nonzero exit instead of a
// hang. Stdout is derived entirely from simulated state, so it is
// byte-identical across -j values and both schedulers.
func runAdversarial(filter string, ladder bool, o harness.Options, workers int, progress bool) int {
	switch filter {
	case "all":
		filter = ""
	case "storm":
		filter = harness.AdversarialStorm
	case "starve":
		filter = harness.AdversarialStarve
	default:
		fmt.Fprintf(os.Stderr, "hastm-bench: -adversarial must be all, storm or starve, got %q\n", filter)
		return 2
	}
	plan, reports := harness.ProgressPlan(o, adversarialCores, ladder, filter)
	_, elapsed := execute([]*harness.Plan{plan}, workers, progressWriter(progress))

	mode := "ladder armed (budget " + fmt.Sprint(harness.AdversarialRetryBudget) + ")"
	if !ladder {
		mode = "ladder disarmed"
	}
	fmt.Printf("adversarial: %s, cores %d, cycle budget %d, watchdog window %d\n\n",
		mode, adversarialCores, harness.AdversarialCycleBudget, harness.AdversarialWatchdogWindow)
	fmt.Printf("%-22s %12s %9s %6s %7s %12s  %s\n",
		"cell", "cycles", "commits", "esc", "irrev", "irrev-cyc", "verdict")
	failures := 0
	for _, rep := range reports {
		if rep.Err != "" {
			failures++
		}
		fmt.Printf("%-22s %12d %9d %6d %7d %12d  %s\n",
			rep.Scheme+"/"+rep.Workload, rep.WallCycles, rep.Commits,
			rep.Escalations, rep.IrrevocableEntries, rep.IrrevocableCycles, rep.Verdict())
		if rep.Detail != "" {
			fmt.Fprintf(os.Stderr, "hastm-bench: %s/%s diagnosis:\n%s\n",
				rep.Scheme, rep.Workload, rep.Detail)
		}
	}
	return finishSweep("adversarial", len(reports), failures, true, elapsed, fmt.Sprintf("-j %d", workers))
}

// runFaultstorm runs the fault-injection conformance sweep and prints one
// verdict row per scheme/structure cell. Stdout is derived entirely from
// simulated state, so it is byte-identical for every -j value; the exit
// code is 1 if any cell failed its invariants or the sequential oracle.
func runFaultstorm(spec faults.Spec, o harness.Options, workers int, progress bool) int {
	plan, reports := harness.FaultPlan(spec, o, faultCores)
	_, elapsed := execute([]*harness.Plan{plan}, workers, progressWriter(progress))

	fmt.Printf("faultstorm: %s (cores %d, ops %d, workload seed %d)\n\n", spec, faultCores, o.Ops, o.Seed)
	fmt.Printf("%-25s %9s %9s %-40s %16s  %s\n",
		"cell", "committed", "injected", "faults", "schedule-hash", "verdict")
	failures := 0
	for _, rep := range reports {
		if rep.Err != "" {
			failures++
		}
		fmt.Printf("%-25s %9d %9d %-40s %016x  %s\n",
			rep.Scheme+"/"+rep.Workload, rep.Committed, rep.ScheduleLen,
			rep.InjectedString(), rep.ScheduleHash, rep.Verdict())
	}
	return finishSweep("faultstorm", len(reports), failures, true, elapsed, fmt.Sprintf("-j %d", workers))
}

// chaosThreads is the goroutine count of every -chaos storm cell: enough
// oversubscription pressure for the injections to land in real conflict
// windows, small enough that the suite stays quick under -race.
const chaosThreads = 8

// chaosSimCyclesPerTxn converts the native chaos spec's per-transaction
// injection periods onto the simulator fault plane's per-cycle axis: a
// structure transaction costs a few hundred simulated cycles, so one
// native "every N transactions" period becomes N×512 cycles — the same
// order-of-magnitude cadence on the other backend.
const chaosSimCyclesPerTxn = 512

// chaosToFaults maps a native chaos spec onto the simulator fault plane:
// stall→suspend (a core stops mid-transaction), preempt→evict (its lines
// are stolen), wakedelay→snoop (watch lines are probed), abort→htmabort,
// seed→seed.
func chaosToFaults(c native.ChaosSpec) faults.Spec {
	return faults.Spec{
		SuspendEvery:  c.Stall * chaosSimCyclesPerTxn,
		EvictEvery:    c.Preempt * chaosSimCyclesPerTxn,
		SnoopEvery:    c.WakeDelay * chaosSimCyclesPerTxn,
		HTMAbortEvery: c.Abort * chaosSimCyclesPerTxn,
		Seed:          c.Seed,
	}
}

// runChaosStorm runs the native chaos-storm suite and prints one verdict
// row per structure cell. Cells run serially (each uses chaosThreads
// goroutines plus its chaos-free twin). The schedule-hash column is
// deterministic for a given spec — CI runs the storm twice and asserts the
// hashes match byte-for-byte — while committed/injected counts are
// host-dependent. Exit 1 if any cell failed its invariants, the oracle, or
// the twin fingerprint comparison.
func runChaosStorm(spec native.ChaosSpec, o harness.Options, jsonF, progress bool) int {
	plan, reports := harness.ChaosStormPlan(spec, o, chaosThreads)
	plans := []*harness.Plan{plan}
	_, elapsed := execute(plans, 1, progressWriter(progress))

	if jsonF {
		// A verdict plan assembles no figure: the document is its cells.
		if code := emit(o, 1, plans, nil, elapsed, true, false); code != 0 {
			return code
		}
	} else {
		fmt.Printf("chaosstorm: native tl2, %s (threads %d, ops %d, seed %d)\n\n",
			spec, chaosThreads, o.Ops, o.Seed)
		fmt.Printf("%-18s %9s %9s %-36s %16s  %s\n",
			"cell", "committed", "planned", "injected", "schedule-hash", "verdict")
	}
	failures := 0
	for _, rep := range reports {
		if !jsonF {
			sched, hash := 0, "-"
			if rep.Chaos != nil {
				sched, hash = rep.Chaos.ScheduleLen, rep.Chaos.ScheduleHash
			}
			fmt.Printf("%-18s %9d %9d %-36s %16s  %s\n",
				"native/"+rep.Workload, rep.Committed, sched, rep.Chaos.InjectedString(), hash, rep.Verdict())
		}
		if rep.Err != "" {
			failures++
			fmt.Fprintf(os.Stderr, "hastm-bench: chaos cell native/%s FAILED: %s\n", rep.Workload, rep.Err)
		}
	}
	return finishSweep("chaosstorm", len(reports), failures, !jsonF, elapsed,
		fmt.Sprintf("cells serial, %d goroutines each", chaosThreads))
}

// runNative runs the host-native TL2 throughput suite: every standard
// workload swept over harness.NativeThreadCounts host goroutines on real
// memory. Cells execute serially regardless of -j — each cell already uses
// up to 32 goroutines, and concurrent cells would steal each other's cores
// and corrupt the throughput numbers. Output is host-dependent; nothing
// here participates in the byte-identity guarantees of the simulator path.
func runNative(o harness.Options, progress, jsonF, csvF bool) int {
	plans := []*harness.Plan{harness.NativePlan(o, harness.NativeThreadCounts)}
	reports, elapsed := execute(plans, 1, progressWriter(progress))
	if code := emit(o, 1, plans, reports, elapsed, jsonF, csvF); code != 0 {
		return code
	}
	fmt.Fprintf(os.Stderr, "hastm-bench: native backend, %d cells in %v (cells serial, up to %d goroutines each)\n",
		len(plans[0].Cells), elapsed.Round(time.Millisecond),
		harness.NativeThreadCounts[len(harness.NativeThreadCounts)-1])
	if reportFailed(plans) > 0 {
		return 1
	}
	return 0
}

// runService runs the open-loop service suite: latency-vs-load and skew
// sweeps of the bank/KV service cell. On the simulator backend stdout is
// derived entirely from deterministic simulated state (byte-identical
// across -j and schedulers) and cells run on the -j worker pool; on the
// native backend cells run serially — each already uses 8 goroutines —
// and every number is host-dependent. Each cell's committed-op log is
// replayed through the sequential oracle inside the run; a divergence
// fails the cell.
func runService(o harness.Options, nativeBackend bool, workers int, progress, jsonF, csvF bool, traceF string) int {
	plan, backend := harness.ServicePlan(o), "sim"
	if nativeBackend {
		plan, backend, workers = harness.ServiceNativePlan(o), "native", 1
	}
	plans := []*harness.Plan{plan}
	stderrSync := telemetry.NewSyncWriter(os.Stderr)
	var pw *telemetry.SyncWriter
	if progress {
		pw = stderrSync
	}
	reports, elapsed := execute(plans, workers, pw)

	if traceF != "" && !nativeBackend {
		if code := writeTrace(traceF, plans, stderrSync); code != 0 {
			return code
		}
	}
	if code := emit(o, workers, plans, reports, elapsed, jsonF, csvF); code != 0 {
		return code
	}
	fmt.Fprintf(os.Stderr, "hastm-bench: service (%s backend), %d cells in %v (-j %d)\n",
		backend, len(plan.Cells), elapsed.Round(time.Millisecond), workers)
	if reportFailed(plans) > 0 {
		return 1
	}
	return 0
}

// throughputSummary prints one stderr line per figure: total simulated
// cycles, total host time spent in that figure's cells, and the resulting
// simulated-cycles-per-host-second rate. Host timings are not
// deterministic, so this goes to stderr and never perturbs stdout
// byte-identity.
func throughputSummary(plans []*harness.Plan) {
	fmt.Fprintf(os.Stderr, "hastm-bench: throughput (simulated cycles / host second, per figure)\n")
	for _, p := range plans {
		var cycles uint64
		var hostNS int64
		for _, c := range p.Cells {
			cycles += c.Metrics().WallCycles
			hostNS += c.HostNS
		}
		rate := 0.0
		if hostNS > 0 {
			rate = float64(cycles) / (float64(hostNS) / 1e9)
		}
		fmt.Fprintf(os.Stderr, "  %-16s %12d cycles %10.1fms host %14.0f cyc/s\n",
			p.ID, cycles, float64(hostNS)/1e6, rate)
	}
}

func main() { os.Exit(realMain()) }

// realMain holds the whole run so deferred cleanups (profile writers) run
// before the process exits; main wraps it in os.Exit.
func realMain() int {
	var (
		fig      = flag.String("fig", "", "run a single figure (e.g. fig16); empty = all")
		quick    = flag.Bool("quick", false, "use reduced experiment sizes")
		ops      = flag.Int("ops", 0, "override total data-structure operations per run")
		seed     = flag.Uint64("seed", 1, "deterministic seed")
		ext      = flag.Bool("ext", false, "also run the extension experiments (ext-*)")
		csvF     = flag.Bool("csv", false, "emit CSV (long format) instead of text tables")
		jsonF    = flag.Bool("json", false, "emit a JSON report with per-cell host timings")
		workers  = flag.Int("j", runtime.GOMAXPROCS(0), "worker count for experiment cells (1 = serial)")
		progress = flag.Bool("progress", false, "print per-cell completion lines to stderr")
		traceF   = flag.String("trace", "", "write a per-transaction JSONL event trace to this file ('-' = stderr)")
		traceMax = flag.Int("trace-max", telemetry.DefaultTraceLimit, "per-cell transaction-event cap for -trace")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		faultsF  = flag.String("faults", "", "run the fault-injection conformance sweep with this spec (e.g. suspend=900,evict=600,seed=3)")
		chaosF   = flag.String("chaos", "", "chaos spec (e.g. stall=200,abort=150,wakedelay=100,seed=3): with -backend native, run the chaos-storm suite (or arm the plane on -service cells); on sim, map onto the fault plane and run the faultstorm")
		svcF     = flag.Bool("service", false, "run the open-loop service suite instead of figures (latency vs load and skew sweeps; honours -backend)")
		advF     = flag.String("adversarial", "", "run the progress-guarantee suite instead of figures: all, storm or starve")
		noLadder = flag.Bool("no-ladder", false, "disarm the escalation ladder in the -adversarial suite (the watchdog must then trip)")
		cycleBud = flag.Uint64("cycle-budget", 2_000_000_000, "hard per-run simulated-cycle budget for figure cells (0 = unlimited)")
		watchWin = flag.Uint64("watchdog-window", 50_000_000, "commit-progress watchdog window in cycles for figure cells (0 = off)")
		schedF   = flag.String("sched", "lease", "simulator scheduler: lease (grant-lease fast path) or reference (per-op handoff)")
		topoF    = flag.String("topology", "", "machine topology SxC (e.g. 4x16 = 4 sockets × 16 cores); empty = flat machine sized per cell")
		mapF     = flag.String("mapping", "", "thread mapping on a multi-socket -topology: compact (default) or scatter")
		placeF   = flag.String("placement", "interleave", "page→home-socket policy on a multi-socket -topology: interleave or first-touch")
		backendF = flag.String("backend", "sim", "execution backend: sim (cycle-ordered simulator) or native (host-goroutine TL2 on real memory)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()

	if *list {
		for _, s := range harness.All() {
			fmt.Printf("%-16s %s\n", s.ID, s.Title)
		}
		for _, s := range harness.Extensions() {
			fmt.Printf("%-16s %s\n", s.ID, s.Title)
		}
		return 0
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hastm-bench: cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "hastm-bench: cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hastm-bench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise final live-heap numbers
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "hastm-bench: memprofile: %v\n", err)
			}
		}()
	}

	o := harness.DefaultOptions()
	if *quick {
		o = harness.QuickOptions()
	}
	if *ops > 0 {
		o.Ops = *ops
	}
	o.Seed = *seed
	if *traceF != "" {
		o.TxnTraceMax = *traceMax
	}
	// The watchdogs observe host-side progress fields only — they never
	// touch simulated memory — so arming them by default keeps figure
	// output bit-identical while turning a hung or livelocked cell into a
	// structured failure with a nonzero exit.
	o.CycleBudget = *cycleBud
	o.WatchdogWindow = *watchWin
	o.StallTimeout = 2 * time.Minute
	switch *schedF {
	case "lease":
	case "reference":
		o.ReferenceScheduler = true
	default:
		fmt.Fprintf(os.Stderr, "hastm-bench: -sched must be lease or reference, got %q\n", *schedF)
		return 2
	}
	// NUMA knobs are validated here, before any machine is built, so a bad
	// topology or an over-subscribed cell fails with a flag error instead of
	// a panic deep in the simulator.
	if *topoF != "" {
		top, err := sim.ParseTopology(*topoF)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hastm-bench: -topology: %v\n", err)
			return 2
		}
		if total := top.Sockets * top.CoresPerSocket; total < harness.MaxFigureThreads {
			fmt.Fprintf(os.Stderr, "hastm-bench: -topology %s has %d cores, but experiment cells use up to %d threads\n",
				top, total, harness.MaxFigureThreads)
			return 2
		}
		o.Topology = top
	}
	mapping, err := harness.ParseMapping(*mapF)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hastm-bench: -mapping: %v\n", err)
		return 2
	}
	o.Mapping = mapping
	placement, err := mem.ParsePlacement(*placeF)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hastm-bench: -placement: %v\n", err)
		return 2
	}
	o.Placement = placement
	chaosSpec, err := native.ParseChaosSpec(*chaosF)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hastm-bench: -chaos: %v\n", err)
		return 2
	}
	o.Chaos = chaosSpec

	switch *backendF {
	case "sim":
	case "native":
		if *svcF {
			// o.Chaos flows into the native service cells: the degradation
			// ladder and watchdogs run with the plane armed.
			return runService(o, true, *workers, *progress, *jsonF, *csvF, *traceF)
		}
		if chaosSpec.Enabled() {
			return runChaosStorm(chaosSpec, o, *jsonF, *progress)
		}
		return runNative(o, *progress, *jsonF, *csvF)
	default:
		fmt.Fprintf(os.Stderr, "hastm-bench: -backend must be sim or native, got %q\n", *backendF)
		return 2
	}

	if *svcF {
		return runService(o, false, *workers, *progress, *jsonF, *csvF, *traceF)
	}

	if *faultsF != "" {
		spec, err := faults.ParseSpec(*faultsF)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hastm-bench: -faults: %v\n", err)
			return 2
		}
		return runFaultstorm(spec, o, *workers, *progress)
	}
	if chaosSpec.Enabled() {
		// Simulator backend: reinterpret the chaos spec on the simulator's
		// own fault plane and run the existing conformance storm.
		return runFaultstorm(chaosToFaults(chaosSpec), o, *workers, *progress)
	}
	if *advF != "" {
		return runAdversarial(*advF, !*noLadder, o, *workers, *progress)
	}

	specs := harness.All()
	if *ext {
		specs = append(specs, harness.Extensions()...)
	}
	if *fig != "" {
		s, ok := harness.ByID(strings.ToLower(*fig))
		if !ok {
			fmt.Fprintf(os.Stderr, "hastm-bench: unknown figure %q (try -list)\n", *fig)
			return 2
		}
		specs = []harness.Spec{s}
	}

	plans := make([]*harness.Plan, len(specs))
	cellCount := 0
	for i, s := range specs {
		plans[i] = s.Plan(o)
		cellCount += len(plans[i].Cells)
	}

	// Progress lines and (when -trace targets stderr) trace output share
	// one mutex-guarded writer, so concurrent workers can never interleave
	// them mid-line.
	stderrSync := telemetry.NewSyncWriter(os.Stderr)
	var pw *telemetry.SyncWriter
	if *progress {
		pw = stderrSync
	}
	reports, elapsed := execute(plans, *workers, pw)

	if *traceF != "" {
		if code := writeTrace(*traceF, plans, stderrSync); code != 0 {
			return code
		}
	}
	if code := emit(o, *workers, plans, reports, elapsed, *jsonF, *csvF); code != 0 {
		return code
	}
	throughputSummary(plans)
	fmt.Fprintf(os.Stderr, "hastm-bench: %d experiments, %d cells in %v (-j %d, -sched %s)\n",
		len(specs), cellCount, elapsed.Round(time.Millisecond), *workers, *schedF)
	if failed := reportFailed(plans); failed > 0 {
		fmt.Fprintf(os.Stderr, "hastm-bench: %d of %d cells failed\n", failed, cellCount)
		return 1
	}
	return 0
}
