// Command bench is the repository's benchmark: five workloads driven
// through the program's public functions, timed from outside, every output
// verified, every metric printed by name with unit, direction and bound.
// README.md in this directory is the glossary and the rationale.
//
//	cd bench && go run . -seed 1                      all workloads, end-to-end table
//	cd bench && go run . -seed 1 -workload sim-4core  one workload
//	cd bench && go run . -seed 1 -trace 1             + layer ladder, out/trace.json
//	cd bench && go run . -selfcheck 10                repeatability evidence
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   (BENCHMARK.json)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is the measured time per workload; BENCHMARK.json's
// run_seconds is the same number (a test holds them together).
const defaultSeconds = 18

// maxWorkers is the most host goroutines any cell computes on at once.
// GOMAXPROCS is pinned, workload by workload, to what its cells compute on
// (procsFor): 2 for the native cells, 1 for the simulator, whose cores are
// goroutines that take turns — with a second, idle P every handoff may wake
// a spinning thread through the kernel, and the minimum over repetitions
// then wanders +-7% on this VM where with one P it holds within 3%.
const maxWorkers = 2

type config struct {
	seed      uint64
	workload  string // "" selects all
	seconds   float64
	trace     bool
	json      bool
	quick     bool
	selfcheck int
	outDir    string
}

// header records what a run's numbers depend on besides the code.
type header struct {
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Nproc     int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
	Rev       string  `json:"git_rev"`
	Quick     bool    `json:"quick"`
	Trace     bool    `json:"trace"`
}

// report is the -json document.
type report struct {
	Header    header             `json:"header"`
	Workloads []*workloadReport  `json:"workloads"`
	PerLayer  map[string]measure `json:"per_layer,omitempty"`
	Overhead  map[string]float64 `json:"trace_overhead_ratio,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
}

// result is the last line of standard output when one workload is
// selected: the driver's contract.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.StringVar(&cfg.workload, "workload", "", "run one workload ("+strings.Join(workloadNames(), ", ")+"); default all")
	flag.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "measured seconds per workload")
	flag.IntVar(&trace, "trace", 0, "1: traced run — layer ladder, per-layer table, trace.json; 0: end-to-end run")
	flag.BoolVar(&cfg.json, "json", false, "print the report as one JSON document instead of tables")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke size: 2 repetitions of tiny cells, numbers meaningless")
	flag.IntVar(&cfg.selfcheck, "selfcheck", 0, "run two interleaved sets of N passes of this binary and compare them")
	flag.StringVar(&cfg.outDir, "out", "out", "directory for trace.json")
	flag.Parse()
	cfg.trace = trace != 0
	if flag.NArg() > 0 || trace < 0 || trace > 1 || cfg.seconds <= 0 || cfg.selfcheck < 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		os.Exit(2)
	}
	if cfg.workload != "" {
		if _, ok := findWorkload(cfg.workload); !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
	}
	if cfg.selfcheck > 0 {
		os.Exit(selfcheck(cfg, os.Stdout))
	}
	os.Exit(run(cfg, os.Stdout))
}

func workloadNames() []string {
	names := make([]string, len(workloadTable))
	for i, w := range workloadTable {
		names[i] = w.Name
	}
	return names
}

// gitRev asks git for the checkout's revision; outside a repository (the
// driver's checkout) it is "unknown". The benchmark runs from bench/, so
// git may look there and one directory up, and no further.
func gitRev() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(filepath.Dir(wd)))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// guardWorkers refuses cells that want more simultaneously computing
// goroutines than the host has processors: two goroutines time-sliced on
// one CPU measure the scheduler, not the program.
func guardWorkers(cells []cell, nproc int) error {
	for _, c := range cells {
		if c.workers > nproc {
			return fmt.Errorf("cell %s computes on %d goroutines, the host has %d CPUs", c.name, c.workers, nproc)
		}
		if c.native && c.ops/c.threads > maxNativeOps {
			return fmt.Errorf("cell %s runs %d ops per goroutine, the native arena holds %d", c.name, c.ops/c.threads, maxNativeOps)
		}
	}
	return nil
}

// tally accumulates operation counts and failure messages over everything
// one process runs.
type tally struct {
	attempted, failed uint64
	failures          []string
}

func (t *tally) add(wr *workloadReport) {
	t.attempted += wr.Attempted
	t.failed += wr.Failed
	t.failures = append(t.failures, wr.Notes...)
}

func (t *tally) failf(format string, args ...any) {
	t.failed++
	t.failures = append(t.failures, fmt.Sprintf(format, args...))
}

// runner is one invocation: what to run, at what size, and where the
// results go.
type runner struct {
	cfg       config
	cells     map[string][]cell
	budget    time.Duration // measured time per workload
	fixedReps int           // > 0 under -quick: exactly this many rounds
	scale     int           // divides the ladder's counts; 1 at full size
	out       io.Writer
	rep       *report
	tally
}

func (r *runner) selected(name string) bool { return r.cfg.workload == "" || r.cfg.workload == name }

// show prints a workload's table unless the report goes out as JSON.
func (r *runner) show(wr *workloadReport) {
	if !r.cfg.json {
		printWorkload(r.out, wr)
	}
}

// run executes the selected workloads and prints the report; it returns
// the process exit code.
func run(cfg config, stdout io.Writer) int {
	nproc := runtime.NumCPU()
	r := &runner{
		cfg: cfg, cells: map[string][]cell{}, scale: 1, out: stdout,
		budget: time.Duration(cfg.seconds * float64(time.Second)),
		rep: &report{Header: header{
			Seed: cfg.seed, Seconds: cfg.seconds, Nproc: nproc,
			GoVersion: runtime.Version(), Rev: gitRev(), Quick: cfg.quick, Trace: cfg.trace,
		}},
	}
	z := fullSizes
	if cfg.quick {
		z, r.fixedReps, r.scale = quickSizes, 2, 32
	}
	for _, w := range workloadTable {
		r.cells[w.Name] = w.cells(cfg.seed, z)
		// The traced run measures every workload's cells.
		if err := guardWorkers(r.cells[w.Name], nproc); err != nil && (cfg.trace || r.selected(w.Name)) {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if !cfg.json {
		printHeader(stdout, r.rep.Header)
	}
	if cfg.trace {
		r.runTraced()
	} else {
		for _, w := range workloadTable {
			if r.selected(w.Name) {
				wr := summarize(w, measureCells(nil, w.Name, r.cells[w.Name], r.budget, r.fixedReps))
				r.add(wr)
				r.rep.Workloads = append(r.rep.Workloads, wr)
				r.show(wr)
			}
		}
	}
	for _, wr := range r.rep.Workloads {
		for name, m := range wr.Metrics {
			if !(m.Value > 0) || math.IsInf(m.Value, 0) { // also catches NaN
				r.failf("%s: %s was not measured", wr.Name, name)
				wr.Metrics[name] = measure{Unit: m.Unit}
			}
		}
	}
	r.rep.Failures = r.failures
	if r.failed > 0 {
		// Also on standard error, which is what a caller that keeps only the
		// result line of standard output still shows.
		fmt.Fprintf(os.Stderr, "bench: %d of %d operations failed\n", r.failed, r.attempted)
		for _, f := range r.failures {
			fmt.Fprintln(os.Stderr, "bench:", f)
		}
	}

	if cfg.json {
		doc, err := json.MarshalIndent(r.rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(doc))
	} else if len(r.failures) > 0 {
		fmt.Fprintf(stdout, "\nFAILURES (%d operations failed)\n", r.failed)
		for _, f := range r.failures {
			fmt.Fprintln(stdout, "  "+f)
		}
	}
	if cfg.workload != "" {
		res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.rep.Workloads[0].Metrics}
		if cfg.trace {
			res.Metrics = r.rep.PerLayer
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if r.failed > 0 {
		return 1
	}
	return 0
}

// runTraced is the traced run: a fifth of the time for the ladder, the rest
// split so that a selected workload gets three shares traced and three
// untraced (their ratio is the tracing overhead) and every other workload
// one share traced, for the per-layer metrics that come out of its cells.
func (r *runner) runTraced() {
	tr := newTracer()
	shares := 0
	for _, w := range workloadTable {
		shares++
		if r.selected(w.Name) {
			shares += 5
		}
	}
	share := r.budget * 4 / 5 / time.Duration(shares)

	l := runLadder(tr, r.cfg.seed, r.budget/5, r.fixedReps, r.scale)
	layers := ladderMetrics(l)
	r.attempted += uint64(len(tr.spans)) // one attempt per rung repetition
	r.failed += uint64(len(l.fails))
	r.failures = append(r.failures, l.fails...)

	r.rep.Overhead = map[string]float64{}
	var overheadSum float64
	for _, w := range workloadTable {
		cells, mine := r.cells[w.Name], share
		if r.selected(w.Name) {
			mine = 3 * share
		}
		wr := summarize(w, measureCells(tr, w.Name, cells, mine, r.fixedReps))
		r.add(wr)
		for name, v := range layersOf(wr) {
			layers[name] = v
		}
		if !r.selected(w.Name) {
			continue
		}
		r.rep.Workloads = append(r.rep.Workloads, wr)
		plain := summarize(w, measureCells(nil, w.Name, cells, mine, r.fixedReps))
		r.add(plain)
		r.rep.Overhead[w.Name] = wr.Metrics["ops_per_s"].Value / plain.Metrics["ops_per_s"].Value
		overheadSum += r.rep.Overhead[w.Name]
		r.show(wr)
	}
	layers["trace_overhead_ratio"] = overheadSum / float64(len(r.rep.Overhead))

	r.rep.PerLayer = map[string]measure{}
	for _, d := range perLayer {
		v, ok := layers[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.failf("per-layer metric %s was not measured", d.Name)
			v = 0
		}
		r.rep.PerLayer[d.Name] = measure{Value: v, Unit: d.Unit}
	}
	path, err := tr.write(r.cfg.outDir, r.rep.Header, r.rep.PerLayer)
	if err != nil {
		r.failf("%v", err)
	}
	r.rep.TraceFile = path
	if !r.cfg.json {
		printLayers(r.out, r.rep, tr)
	}
}

func printHeader(w io.Writer, h header) {
	fmt.Fprintf(w, "hastm bench: seed %d, %g s per workload, nproc %d, %s, rev %s, quick %t, trace %t\n",
		h.Seed, h.Seconds, h.Nproc, h.GoVersion, h.Rev, h.Quick, h.Trace)
}

func printWorkload(w io.Writer, r *workloadReport) {
	fmt.Fprintf(w, "\n== %s: %d cells x R %d, GOMAXPROCS %d, ops_attempted %d, ops_failed %d, ops_shed %d\n   %s\n",
		r.Name, r.Cells, r.Reps, r.Procs, r.Attempted, r.Failed, r.Shed, r.Why)
	fmt.Fprintf(w, "   %-28s %16s  %-10s %-7s %-6s %s\n", "end-to-end metric", "value", "unit", "better", "bound", "informational")
	for _, d := range endToEnd {
		info := ""
		if med, ok := r.Info[d.Name+"_median"]; ok {
			info = fmt.Sprintf("%s_median %.6g, %s_iqr %.3g", d.Name, med.Value, d.Name, r.Info[d.Name+"_iqr"].Value)
		}
		if d.Name == "ops_per_s" {
			info += fmt.Sprintf(", txns_per_s %.6g", r.Info["txns_per_s"].Value)
		}
		fmt.Fprintf(w, "   %-28s %16.6f  %-10s %-7s %-6.2f %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit, d.Better, d.Bound, info)
	}
	for _, e := range exactMetrics {
		if m, ok := r.Exact[e.Name]; ok {
			fmt.Fprintf(w, "   %-28s %16.6f  %-10s %-7s %-6s exact: identical in every repetition\n", e.Name, m.Value, e.Unit, e.Better, "0")
		}
	}
}

// printLayers prints the traced run's per-layer table, grouped by module in
// ladder order, and the trace's own summary.
func printLayers(w io.Writer, rep *report, tr *tracer) {
	fmt.Fprintf(w, "\n== per-layer metrics (traced run)\n   %-40s %16s  %-10s %-7s %s\n", "metric", "value", "unit", "better", "should move")
	for _, d := range perLayer {
		fmt.Fprintf(w, "   %-40s %16.6g  %-10s %-7s %s\n", d.Name, rep.PerLayer[d.Name].Value, d.Unit, d.Better, d.Moves)
	}
	names := make([]string, 0, len(rep.Overhead))
	for n := range rep.Overhead {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "   trace_overhead_ratio %-19s %16.6g  ratio\n", n, rep.Overhead[n])
	}
	fmt.Fprintf(w, "\n== trace: %d spans written to %s\n   %-44s %8s %12s %14s %14s\n", len(tr.spans), rep.TraceFile, "layer (ladder and composed spans)", "spans", "ops", "total_ms", "self_ms")
	for _, r := range tr.summary() {
		if strings.Contains(r.Name, ":") {
			continue // one row per cell would bury the layers; the file has them
		}
		fmt.Fprintf(w, "   %-44s %8d %12d %14.3f %14.3f\n", r.Name, r.Count, r.Ops, float64(r.Total)/1e6, float64(r.Self)/1e6)
	}
}
