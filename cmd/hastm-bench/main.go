// Command hastm-bench regenerates the paper's evaluation and runs the
// suites built beside it (suites.go holds the table; -h and -list print it).
//
//	hastm-bench [-quick] [-fig ID] [-ext] [-json|-csv]   the paper's figures
//	hastm-bench -service | -faults SPEC | -adversarial SET | -chaos SPEC
//	hastm-bench -backend native [-service | -chaos SPEC]
//
// Reports go to stdout, diagnostics to stderr. Every simulation cell runs on
// its own private machine, so stdout and the -trace file are byte-identical
// for every -j value and both -sched settings. Exit status: 0 every cell
// passed, 1 a cell failed, 2 the command line was rejected.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"hastm.dev/hastm/internal/harness"
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/native"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/spec"
	"hastm.dev/hastm/internal/telemetry"
)

// config is the parsed command line: the options every cell runs under, the
// switches of the suites, and the names of the flags the user set.
type config struct {
	o       harness.Options
	set     []string // flags given a non-default value (a -chaos that arms nothing is default), sorted
	backend string   // "sim" or "native"
	sched   string
	workers int

	fig, faults, adversarial, trace, cpuProfile, memProfile string
	ext, noLadder, json, csv, progress, list                bool
}

func (c *config) has(flag string) bool { return slices.Contains(c.set, flag) }

// usageError is a rejected command line: exit status 2.
type usageError struct{ error }

// flagErr rejects the command line over one flag: "-flag: reason".
func flagErr(flag, format string, args ...any) error {
	return usageError{fmt.Errorf("-%s: %s", flag, fmt.Sprintf(format, args...))}
}

// parseFlags declares the flags, parses the command line and checks every
// value that can be checked without knowing the suite.
func parseFlags() (*config, error) {
	c := &config{o: harness.DefaultOptions()}
	var topology, mapping, placement, chaos string
	var quick bool
	var ops, traceMax int
	var seed, cycleBudget, watchdogWindow uint64
	flag.BoolVar(&quick, "quick", false, "use reduced experiment sizes")
	flag.IntVar(&ops, "ops", 0, "override total data-structure operations per run")
	flag.Uint64Var(&seed, "seed", 1, "deterministic seed")
	flag.IntVar(&c.workers, "j", runtime.GOMAXPROCS(0), "worker count for experiment cells (1 = serial); host cells always run serially")
	flag.BoolVar(&c.progress, "progress", false, "print per-cell completion lines to stderr")
	flag.StringVar(&c.trace, "trace", "", "write a per-transaction JSONL event trace to this file ('-' = stderr); analyse it with cmd/traceanalyze")
	flag.IntVar(&traceMax, "trace-max", telemetry.DefaultTraceLimit, "per-cell transaction-event cap for -trace")
	flag.BoolVar(&c.list, "list", false, "list experiment ids and suites, then exit")
	flag.StringVar(&c.backend, "backend", "sim", "execution backend: sim (cycle-ordered simulator) or native (host-goroutine TL2 on real memory)")
	flag.StringVar(&c.sched, "sched", "lease", "simulator scheduler: lease (grant-lease fast path) or reference (per-op handoff; identical reports, slower)")
	flag.StringVar(&topology, "topology", "", "machine topology SxC (e.g. 4x16 = 4 sockets × 16 cores); empty = flat machine sized per cell")
	flag.StringVar(&mapping, "mapping", "", "thread mapping on a multi-socket -topology: compact (default) or scatter")
	flag.StringVar(&placement, "placement", "interleave", "page→home-socket policy on a multi-socket -topology: interleave or first-touch")
	flag.Uint64Var(&cycleBudget, "cycle-budget", 2_000_000_000, "hard per-run simulated-cycle budget (0 = unlimited); a trip fails the cell with a diagnosis")
	flag.Uint64Var(&watchdogWindow, "watchdog-window", 50_000_000, "commit-progress watchdog window in cycles (0 = off)")
	flag.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&c.memProfile, "memprofile", "", "write an allocation profile to this file at exit")
	flag.StringVar(&c.fig, "fig", "", "figures: run a single experiment (e.g. fig16)")
	flag.BoolVar(&c.ext, "ext", false, "figures: also run the extension experiments (ext-*)")
	flag.BoolVar(&c.csv, "csv", false, "emit CSV (long format) instead of text tables")
	flag.BoolVar(&c.json, "json", false, "emit a JSON report with per-cell host timings (schema "+harness.BenchSchema+")")
	flag.Bool("service", false, "select the service suite") // read back through c.has, like every selector
	flag.StringVar(&c.faults, "faults", "", "select the faultstorm suite; spec e.g. suspend=900,evict=600,seed=3")
	flag.StringVar(&chaos, "chaos", "", "chaos spec, e.g. stall=200,abort=150,wakedelay=100,seed=3: selects the chaosstorm suite (native) or the faultstorm suite (sim)")
	flag.StringVar(&c.adversarial, "adversarial", "", "select the adversarial suite: all, storm or starve")
	flag.BoolVar(&c.noLadder, "no-ladder", false, "adversarial: disarm the escalation ladder (the watchdog must then trip)")
	// The flag package reports nothing itself: a rejected command line is
	// one "hastm-bench:" line from realMain, and -h is usage.
	flag.CommandLine.Init("hastm-bench", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	err := flag.CommandLine.Parse(os.Args[1:])
	flag.CommandLine.SetOutput(os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		usage()
		return nil, err
	case err != nil:
		return nil, usageError{err}
	case flag.NArg() > 0:
		return nil, usageError{fmt.Errorf("unexpected argument %q", flag.Arg(0))}
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Value.String() != f.DefValue {
			c.set = append(c.set, f.Name)
		}
	})
	if quick {
		c.o = harness.QuickOptions()
	}
	// The watchdogs observe host-side progress fields only — they never
	// touch simulated memory — so arming them by default keeps every report
	// bit-identical while turning a hung or livelocked cell into a
	// structured failure with a nonzero exit.
	c.o.Seed, c.o.CycleBudget, c.o.WatchdogWindow, c.o.StallTimeout = seed, cycleBudget, watchdogWindow, 2*time.Minute
	switch {
	case ops < 0:
		return nil, flagErr("ops", "must be positive, got %d", ops)
	case c.workers < 1:
		return nil, flagErr("j", "must be at least 1, got %d", c.workers)
	case traceMax < 0:
		return nil, flagErr("trace-max", "must not be negative, got %d", traceMax)
	case ops > 0:
		c.o.Ops = ops
	}
	if c.trace != "" {
		c.o.TxnTraceMax = traceMax
	}
	if !slices.Contains([]string{"sim", "native"}, c.backend) {
		return nil, flagErr("backend", "%v", spec.Unknown("backend", c.backend, "sim", "native"))
	}
	if !slices.Contains([]string{"lease", "reference"}, c.sched) {
		return nil, flagErr("sched", "%v", spec.Unknown("scheduler", c.sched, "lease", "reference"))
	}
	c.o.ReferenceScheduler = c.sched == "reference"
	if topology != "" {
		if c.o.Topology, err = sim.ParseTopology(topology); err != nil {
			return nil, flagErr("topology", "%v", err)
		}
	}
	if c.o.Mapping, err = harness.ParseMapping(mapping); err != nil {
		return nil, flagErr("mapping", "%v", err)
	}
	if c.o.Placement, err = mem.ParsePlacement(placement); err != nil {
		return nil, flagErr("placement", "%v", err)
	}
	if c.o.Chaos, err = native.ParseChaosSpec(chaos); err != nil {
		return nil, flagErr("chaos", "%v", err)
	}
	if !c.o.Chaos.Enabled() {
		// "off" and a bare seed arm no kind: the disabled spec is the flag's
		// default in other words, so it selects no suite.
		c.set = slices.DeleteFunc(c.set, func(name string) bool { return name == "chaos" })
	}
	return c, nil
}

// usage is -h: the synopsis, the suites, the flags.
func usage() {
	fmt.Fprintln(os.Stderr, "usage: hastm-bench [flags]    (exit 0: every cell passed; 1: a cell failed; 2: command line rejected)")
	printSuites(os.Stderr)
	fmt.Fprintln(os.Stderr, "\nflags:")
	flag.PrintDefaults()
}

// printSuites lists the suite table: name, how to select it, what it does.
func printSuites(w io.Writer) {
	fmt.Fprintln(w, "\nsuites:")
	for _, s := range suites {
		fmt.Fprintf(w, "  %-12s %-28s %s\n", s.name, s.how, s.help)
	}
}

// runSuite is the one path every suite takes: pick and validate before any
// machine is built, execute the cells, write the trace, render the reports
// or the verdict table, then the footer and the failed cells. It returns a
// usageError for a rejected command line and a plain error for a run that
// did not pass.
func runSuite(c *config) error {
	s := pick(c)
	if err := s.validate(c); err != nil {
		return err
	}
	plans, banner, err := s.plan(s, c)
	if err != nil {
		return err
	}
	stop, err := startProfiles(c)
	if err != nil {
		return err
	}
	defer stop()

	// Host cells run serially whatever -j says: each already fills the
	// machine with goroutines, and concurrent cells would steal each
	// other's cores. Progress lines and a -trace to stderr share one
	// mutex-guarded writer, so they never interleave mid-line.
	workers, how := c.workers, fmt.Sprintf("-j %d, -sched %s", c.workers, c.sched)
	if c.backend == "native" {
		workers, how = 1, fmt.Sprintf("cells serial, up to %d goroutines each", s.threads)
	}
	stderr := telemetry.NewSyncWriter(os.Stderr)
	exec := harness.ExecConfig{Workers: workers}
	if c.progress {
		exec.ProgressSync = stderr
	}
	start := time.Now()
	reports := harness.Execute(plans, exec)
	elapsed := time.Since(start)

	var cells []*harness.Cell
	for _, p := range plans {
		cells = append(cells, p.Cells...)
	}
	verdicts := banner != ""
	if c.trace != "" && c.backend == "sim" && !verdicts {
		if err := writeTrace(c.trace, plans, stderr); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	switch {
	case c.json:
		err = harness.NewBenchJSON(c.o, workers, plans, reports, elapsed).Write(os.Stdout)
	case verdicts:
		printVerdicts(s.name, banner, cells)
	default:
		for _, rep := range reports {
			if c.csv {
				err = errors.Join(err, rep.RenderCSV(os.Stdout))
			} else {
				rep.Render(os.Stdout)
			}
		}
	}
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}

	if c.backend == "sim" && !verdicts {
		throughputSummary(plans)
	}
	fmt.Fprintf(os.Stderr, "hastm-bench: %s suite, %s backend: %d cells in %v (%s)\n",
		s.name, c.backend, len(cells), elapsed.Round(time.Millisecond), how)
	// A failed cell carries its diagnosis — a watchdog trip, a contained
	// core panic, a failed verdict — in Cell.Err (and in the JSON report);
	// the run fails loudly rather than publish tables with missing cells.
	failed := harness.FailedCells(plans)
	for _, cell := range failed {
		fmt.Fprintf(os.Stderr, "hastm-bench: cell %s/%s FAILED:\n%s\n", cell.Figure, cell.Label, cell.Err)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d cells failed", len(failed), len(cells))
	}
	return nil
}

// printVerdicts renders a verdict suite's stdout: the banner, one row per
// cell under the suite's column header, and the cells/failed footer. All of
// it derives from simulated state (or, on the host, from the spec), so it is
// byte-identical across -j values and both schedulers.
func printVerdicts(name, banner string, cells []*harness.Cell) {
	fmt.Printf("%s\n\n%s\n", banner, cells[0].Verdict.Header())
	failures := 0
	for _, c := range cells {
		fmt.Println(c.Verdict.Row())
		if c.Err != "" {
			failures++
		}
	}
	fmt.Printf("\n%s: %d cells, %d failed\n", name, len(cells), failures)
}

// writeTrace dumps every cell's transaction trace, in cell declaration
// order, to the -trace destination ('-' is stderr's shared writer).
func writeTrace(dest string, plans []*harness.Plan, stderr *telemetry.SyncWriter) error {
	tw := stderr
	var f *os.File
	if dest != "-" {
		var err error
		if f, err = os.Create(dest); err != nil {
			return err
		}
		tw = telemetry.NewSyncWriter(f)
	}
	written, dropped, err := harness.WriteTxnTraces(plans, tw)
	if f != nil {
		err = errors.Join(err, f.Close())
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "hastm-bench: trace: %d events written, %d dropped\n", written, dropped)
	return nil
}

// throughputSummary prints one stderr line per figure: total simulated
// cycles, total host time spent in that figure's cells, and the resulting
// simulated-cycles-per-host-second rate. Host timings are not
// deterministic, so this goes to stderr and never perturbs stdout
// byte-identity.
func throughputSummary(plans []*harness.Plan) {
	fmt.Fprintf(os.Stderr, "hastm-bench: throughput (simulated cycles / host second, per figure)\n")
	for _, p := range plans {
		var cycles, hostNS float64
		for _, c := range p.Cells {
			cycles += float64(c.Metrics().WallCycles)
			hostNS += float64(c.HostNS)
		}
		fmt.Fprintf(os.Stderr, "  %-16s %12.0f cycles %10.1fms host %14.0f cyc/s\n",
			p.ID, cycles, hostNS/1e6, cycles/max(hostNS, 1)*1e9)
	}
}

// startProfiles starts the -cpuprofile and arranges the -memprofile; the
// returned function finishes both.
func startProfiles(c *config) (stop func(), err error) {
	var cpu *os.File
	if c.cpuProfile != "" {
		if cpu, err = os.Create(c.cpuProfile); err == nil {
			err = pprof.StartCPUProfile(cpu)
		}
		if err != nil {
			return nil, usageError{fmt.Errorf("-cpuprofile: %w", err)}
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if c.memProfile == "" {
			return
		}
		f, err := os.Create(c.memProfile)
		if err == nil {
			runtime.GC() // materialise final live-heap numbers
			err = errors.Join(pprof.WriteHeapProfile(f), f.Close())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hastm-bench: memprofile: %v\n", err)
		}
	}, nil
}

// run is the whole command.
func run() error {
	c, err := parseFlags()
	if err != nil {
		return err
	}
	if c.list {
		for _, s := range append(harness.All(), harness.Extensions()...) {
			fmt.Printf("%-16s %s\n", s.ID, s.Title)
		}
		printSuites(os.Stdout)
		return nil
	}
	return runSuite(c)
}

func main() { os.Exit(realMain()) }

// realMain turns run's outcome into the exit status, after run's deferred
// cleanups (the profile writers) have finished: 2 for a rejected command
// line, 1 for a run that did not pass.
func realMain() int {
	err := run()
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintf(os.Stderr, "hastm-bench: %v\n", err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}
