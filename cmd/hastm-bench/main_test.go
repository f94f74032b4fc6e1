package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"hastm.dev/hastm/internal/harness"
)

// runMain runs the command in-process with the given arguments and returns
// its exit status, stdout and stderr.
func runMain(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	files := [2]*os.File{}
	for i, name := range []string{"stdout", "stderr"} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = f
	}
	oldArgs, oldOut, oldErr, oldFlags := os.Args, os.Stdout, os.Stderr, flag.CommandLine
	defer func() { os.Args, os.Stdout, os.Stderr, flag.CommandLine = oldArgs, oldOut, oldErr, oldFlags }()
	os.Args = append([]string{"hastm-bench"}, args...)
	os.Stdout, os.Stderr = files[0], files[1]
	flag.CommandLine = flag.NewFlagSet("hastm-bench", flag.ContinueOnError)
	code = realMain()
	var text [2]string
	for i, f := range files {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		text[i] = string(b)
	}
	return code, text[0], text[1]
}

// -ops smaller than a cell's thread count used to print 0.000 down the
// 16-processor column and exit 0; the cells now fail and so does the run.
func TestUnsplittableOpsFailsTheRun(t *testing.T) {
	code, _, _ := runMain(t, "-quick", "-ops", "8", "-fig", "fig11", "-j", "2")
	if code != 1 {
		t.Errorf("exit status %d, want 1", code)
	}
	if code, _, _ := runMain(t, "-quick", "-ops", "16", "-fig", "fig11", "-j", "2"); code != 0 {
		t.Errorf("16 ops over 16 processors: exit status %d, want 0", code)
	}
}

// A service cell that cannot run is a failed cell — zeros in the tables, its
// diagnosis on stderr, exit 1 — where it used to crash the table assembly
// with a nil dereference.
func TestFailedServiceCellIsAFailedCell(t *testing.T) {
	for _, backend := range []string{"sim", "native"} {
		code, stdout, stderr := runMain(t, "-quick", "-service", "-ops", "3", "-backend", backend)
		if code != 1 {
			t.Errorf("%s: exit status %d, want 1", backend, code)
		}
		if !strings.Contains(stdout, "-- load-latency") || !strings.Contains(stdout, "0.000") {
			t.Errorf("%s: the tables were not rendered with the failed cells as zeros:\n%s", backend, stdout)
		}
		if !strings.Contains(stderr, "FAILED") || !strings.Contains(stderr, "ops cannot be split over 8 threads") || strings.Contains(stderr, "goroutine ") {
			t.Errorf("%s: stderr does not carry the cells' diagnosis (or carries a stack):\n%s", backend, stderr)
		}
	}
}

// Every malformed or conflicting command line is one "hastm-bench:" line
// naming the flag, exit 2, before any cell runs — never a silently ignored
// flag, a different suite than the one asked for, or a stack trace.
func TestRejectedCommandLines(t *testing.T) {
	for _, tc := range []struct {
		names string // what the one stderr line must name
		args  []string
	}{
		// values no suite could honour
		{"-ops:", []string{"-ops", "-3"}},
		{"-j:", []string{"-j", "0"}},
		{"-j:", []string{"-j", "-2"}},
		{"flag -j:", []string{"-j", "x"}},
		{`unexpected argument "stray"`, []string{"stray"}},
		{`unexpected argument "fig11"`, []string{"-quick", "fig11"}},
		{"-bogus", []string{"-bogus"}},
		{`-sched: unknown scheduler "fifo" (want lease or reference)`, []string{"-sched", "fifo"}},
		{`-backend: unknown backend "gpu" (want sim or native)`, []string{"-backend", "gpu"}},
		{`-adversarial: unknown cell set "most" (want all, storm or starve)`, []string{"-adversarial", "most"}},
		{`-faults: faults: unknown key "frob" (want suspend, evict, snoop, htmabort or seed)`, []string{"-faults", "frob=1"}},
		{`-chaos: chaos: "stall" is not key=value`, []string{"-chaos", "stall"}},
		{"-fig:", []string{"-fig", "fig99"}},
		{`-fig: unknown experiment "ext-numa" (try -list)`, []string{"-quick", "-fig", "ext-numa"}},
		{"-events: must not be negative", []string{"-cell", "stm/bst/2", "-events", "-1"}},
		// a -cell the figures do not label (more in TestCellRejectedInvocations)
		{`-cell: "stm/bst" is not SCHEME/WORKLOAD/CORES`, []string{"-cell", "stm/bst"}},
		{"-cell: cores must be >= 1, got 0", []string{"-cell", "stm/bst/0"}},
		{`-cell: unknown scheme "tl3"`, []string{"-cell", "tl3/bst/2"}},
		{"-cell: cache: 512 L1 groups exceeds the 256-entry directory", []string{"-cell", "stm/bst/512"}},
		// two suite selectors at once
		{"-faults:", []string{"-service", "-faults", "suspend=900,seed=3", "-fig", "fig99"}},
		{"-adversarial:", []string{"-service", "-adversarial", "all"}},
		{"-adversarial:", []string{"-faults", "seed=3", "-adversarial", "all"}},
		// a selector of a suite the backend cannot run
		{"-adversarial:", []string{"-adversarial", "storm", "-backend", "native"}},
		{"-faults:", []string{"-faults", "suspend=900", "-backend", "native"}},
		// a flag outside its suite
		{"-no-ladder:", []string{"-no-ladder"}},
		{"-no-ladder:", []string{"-quick", "-service", "-no-ladder"}},
		{"-fig:", []string{"-service", "-fig", "fig11"}},
		{"-ext:", []string{"-faults", "seed=3", "-ext"}},
		{"-ext:", []string{"-backend", "native", "-ext"}},
		{"-json:", []string{"-faults", "seed=3", "-json"}},
		{"-events:", []string{"-quick", "-events", "5"}},
		{"-json:", []string{"-cell", "stm/bst/2", "-json"}},
		// a simulated-machine knob on the host backend
		{"-sched:", []string{"-backend", "native", "-service", "-sched", "reference"}},
		{"-cell:", []string{"-backend", "native", "-cell", "stm/bst/2"}},
		// the chaos plane on the simulator, which runs the fault plane (-faults)
		{"hastm-bench: -chaos: not honoured by the figures suite on -backend sim", []string{"-quick", "-chaos", "abort=3"}},
		{"-chaos: not honoured by the faultstorm suite", []string{"-faults", "seed=3", "-chaos", "abort=3"}},
		{"-chaos: the service suite arms the chaos plane with -backend native only", []string{"-quick", "-service", "-chaos", "abort=3"}},
		// flags the command does not have: the watchdogs and the trace cap
		// are constants (TestCommandLineArmsTheWatchdogs), -json carries the
		// figure tables, and the machine is the paper's flat one
		{"flag provided but not defined: -cycle-budget", []string{"-quick", "-cycle-budget", "5"}},
		{"flag provided but not defined: -watchdog-window", []string{"-quick", "-watchdog-window", "0"}},
		{"flag provided but not defined: -trace-max", []string{"-quick", "-trace", "t.jsonl", "-trace-max", "100"}},
		{"flag provided but not defined: -csv", []string{"-quick", "-csv"}},
		{"flag provided but not defined: -topology", []string{"-quick", "-topology", "2x8"}},
		{"flag provided but not defined: -mapping", []string{"-quick", "-mapping", "scatter"}},
		{"flag provided but not defined: -placement", []string{"-quick", "-placement", "first-touch"}},
	} {
		checkRejected(t, tc.names, tc.args...)
	}
}

// checkRejected runs a command line that must be refused: exit 2, no stdout,
// and one "hastm-bench:" line on stderr naming names.
func checkRejected(t *testing.T, names string, args ...string) {
	t.Helper()
	code, stdout, stderr := runMain(t, args...)
	if code != 2 || stdout != "" {
		t.Errorf("%v: exit status %d, %d bytes of stdout; want 2 and none\n%s", args, code, len(stdout), stderr)
	}
	if !strings.HasPrefix(stderr, "hastm-bench: ") || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, names) {
		t.Errorf("%v: stderr is not one hastm-bench: line naming %q:\n%s", args, names, stderr)
	}
}

// A -cell the figures do not label is refused before any machine is built.
// TestRejectedCommandLines holds the malformed label, zero cores and an
// unknown scheme.
func TestCellRejectedInvocations(t *testing.T) {
	for _, tc := range []struct {
		names string // what the one stderr line must name
		args  []string
	}{
		{`unexpected argument "btree"`, []string{"-cell", "stm/bst/2", "btree"}},
		{`-cell: "stm/bst/x": cores "x" is not a number`, []string{"-cell", "stm/bst/x"}},
		{`-cell: unknown workload "list"`, []string{"-cell", "stm/list/2"}},
	} {
		checkRejected(t, tc.names, tc.args...)
	}
}

// -ops smaller than the cell's core count cannot be split: the cell suite
// exits 2 naming the -ops value and the core count, and prints no report.
func TestCellUnsplittableOpsExitsTwo(t *testing.T) {
	checkRejected(t, "-cell: ops 3 cannot be split over 4 threads", "-cell", "hastm/btree/4", "-ops", "3")
}

// A -chaos spec that arms no kind ("off", a bare seed) is the disabled spec:
// it selects no storm, so each backend still runs its default suite with that
// suite's own flags, instead of a storm that injects nothing.
func TestDisabledChaosSelectsNoSuite(t *testing.T) {
	native := []string{"-quick", "-backend", "native", "-ops", "400"}
	for _, tc := range []struct {
		suite string
		args  []string
	}{
		{"figures suite, sim", []string{"-quick", "-fig", "fig11", "-chaos", "off"}},
		{"figures suite, sim", []string{"-quick", "-fig", "fig11", "-chaos", "seed=3"}},
		{"service suite, sim", []string{"-quick", "-service", "-chaos", "seed=3"}},
		{"native suite, native", append(native, "-chaos", "off")},
		{"native suite, native", append(native, "-chaos", "seed=3")},
		{"chaosstorm suite, native", append(native, "-chaos", "abort=40,seed=3")},
	} {
		code, stdout, stderr := runMain(t, tc.args...)
		storm := strings.Contains(tc.suite, "storm")
		if code != 0 || !strings.Contains(stderr, "hastm-bench: "+tc.suite+" backend") || strings.Contains(stdout, "storm: ") != storm {
			t.Errorf("%v: exit status %d, want 0 and the %s backend:\n%s%s", tc.args, code, tc.suite, stdout, stderr)
		}
	}
}

// Every run of the command arms the watchdogs at fixed values: the cycle
// budget, the commit-progress window and the host stall timeout. No flag
// sets them. harness.DefaultOptions, which bench/ runs, arms the first two
// and leaves the stall timeout off.
func TestCommandLineArmsTheWatchdogs(t *testing.T) {
	for _, args := range [][]string{nil, {"-quick"}, {"-quick", "-service", "-backend", "native"}} {
		oldArgs, oldFlags := os.Args, flag.CommandLine
		os.Args = append([]string{"hastm-bench"}, args...)
		flag.CommandLine = flag.NewFlagSet("hastm-bench", flag.ContinueOnError)
		c, err := parseFlags()
		os.Args, flag.CommandLine = oldArgs, oldFlags
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if c.o.CycleBudget != 2_000_000_000 || c.o.WatchdogWindow != 50_000_000 || c.o.StallTimeout != 2*time.Minute {
			t.Errorf("%v: cycle budget %d, watchdog window %d, stall timeout %v; want 2000000000, 50000000, 2m0s",
				args, c.o.CycleBudget, c.o.WatchdogWindow, c.o.StallTimeout)
		}
	}
	// Every run arms the simulated-cycle watchdogs; only the command line
	// adds the host stall monitor, whose goroutines a cell would pay for.
	if o := harness.DefaultOptions(); o.CycleBudget != 2_000_000_000 || o.WatchdogWindow != 50_000_000 || o.StallTimeout != 0 {
		t.Errorf("harness.DefaultOptions: cycle budget %d, watchdog window %d, stall timeout %v; want 2000000000, 50000000, 0s",
			o.CycleBudget, o.WatchdogWindow, o.StallTimeout)
	}
}

// A -trace run that fails leaves the file of the last run byte for byte: the
// trace is written beside it and renamed over it only on success.
func TestFailedTraceWriteKeepsThePreviousFile(t *testing.T) {
	dest := filepath.Join(t.TempDir(), "t.jsonl")
	const previous = "{\"cell\":\"fig16/stm/bst/1\"}\n"
	if err := os.WriteFile(dest, []byte(previous), 0o644); err != nil {
		t.Fatal(err)
	}
	failed := errors.New("check failed")
	err := replaceFile(dest, func(w io.Writer) error {
		fmt.Fprintln(w, "partial")
		return failed
	})
	if !errors.Is(err, failed) {
		t.Errorf("err = %v, want %v", err, failed)
	}
	if b, _ := os.ReadFile(dest); string(b) != previous {
		t.Errorf("%s holds %q after a failed write, want %q", dest, b, previous)
	}
	if leftover, _ := filepath.Glob(dest + "*"); len(leftover) != 1 {
		t.Errorf("files after a failed write: %v, want %s alone", leftover, dest)
	}
	if err := replaceFile(dest, func(w io.Writer) error { _, err := io.WriteString(w, "new\n"); return err }); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(dest); string(b) != "new\n" {
		t.Errorf("%s holds %q after a write, want \"new\\n\"", dest, b)
	}
}

// A failed verdict is a failed cell: its row says FAIL, its full diagnosis
// goes to stderr, the footer counts it and the run exits 1.
func TestDisarmedLadderFailsTheRun(t *testing.T) {
	code, stdout, stderr := runMain(t, "-adversarial", "storm", "-no-ladder", "-j", "2")
	if code != 1 {
		t.Errorf("exit status %d, want 1", code)
	}
	if !strings.Contains(stdout, "FAIL: sim: ProgressViolation") || strings.Contains(stdout, " 0 failed") {
		t.Errorf("stdout does not report the violations:\n%s", stdout)
	}
	if !strings.Contains(stderr, "cell adversarial/stm/writer-storm/4 FAILED:") || !strings.Contains(stderr, "last 16 trace events") {
		t.Errorf("stderr does not carry the diagnosis:\n%s", stderr)
	}
}

// -h and -list print the suite table, and README "Commands" carries the same
// rows, so there is one copy of what each suite is and how it is selected.
func TestSuiteTableIsTheDocumentation(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, commands, _ := strings.Cut(string(readme), "\n## Commands\n")
	commands, _, _ = strings.Cut(commands, "\n## ")
	code, list, _ := runMain(t, "-list")
	_, _, help := runMain(t, "-h")
	if code != 0 {
		t.Errorf("-list: exit status %d", code)
	}
	for _, s := range suites {
		row := fmt.Sprintf("| `%s` | `%s` | %s |", s.name, s.how, s.help)
		if !strings.Contains(commands, row) {
			t.Errorf("README \"Commands\" lacks the %s suite's row:\n%s", s.name, row)
		}
		for name, out := range map[string]string{"-list": list, "-h": help} {
			if !strings.Contains(out, s.help) || !strings.Contains(out, s.how) {
				t.Errorf("%s does not print the %s suite", name, s.name)
			}
		}
		for _, name := range s.selectors {
			if !strings.Contains(s.how, "-"+name) {
				t.Errorf("the %s suite is selected by -%s, which its \"%s\" does not say", s.name, name, s.how)
			}
		}
		for _, name := range append(strings.Fields(commonFlags+" "+s.honours), s.selectors...) {
			if !strings.Contains(help, "\n  -"+name+" ") && !strings.Contains(help, "\n  -"+name+"\n") {
				t.Errorf("the %s suite names a flag -%s that -h does not list", s.name, name)
			}
		}
	}
	if n := strings.Count(commands, "\n| `"); n != len(suites)+1 {
		t.Errorf("README \"Commands\" has %d rows, want the %d suites and the one other command", n, len(suites))
	}
}

// The cell suite runs the figures' cell: at -quick its wall cycles are those
// of fig22's quick hastm/btree/2 cell.
func TestCellIsTheFigureCell(t *testing.T) {
	code, stdout, stderr := runMain(t, "-quick", "-cell", "hastm/btree/2")
	if code != 0 {
		t.Fatalf("exit status %d: %s", code, stderr)
	}
	var wall uint64
	for _, line := range strings.Split(stdout, "\n") {
		fmt.Sscanf(line, "wall cycles: %d", &wall)
	}
	code, report, stderr := runMain(t, "-quick", "-fig", "fig22", "-json")
	if code != 0 {
		t.Fatalf("fig22: exit status %d: %s", code, stderr)
	}
	type cell struct {
		Label      string `json:"label"`
		WallCycles uint64 `json:"wall_cycles"`
	}
	var doc struct {
		Cells []cell `json:"cells"`
	}
	if err := json.Unmarshal([]byte(report), &doc); err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(doc.Cells, func(c cell) bool { return c.Label == "hastm/btree/2" })
	if i < 0 || wall == 0 || doc.Cells[i].WallCycles != wall {
		t.Errorf("-cell prints %d wall cycles, fig22's hastm/btree/2 cell %+v", wall, doc.Cells)
	}
}

// The native suite's -json document names the host backend once, on
// itself, and gives each cell its committed transactions per host second
// in place of the simulator's cycles.
func TestNativeJSONNamesTheBackend(t *testing.T) {
	code, stdout, stderr := runMain(t, "-quick", "-backend", "native", "-ops", "400", "-json")
	if code != 0 {
		t.Fatalf("exit status %d: %s", code, stderr)
	}
	var doc struct {
		Backend string `json:"backend"`
		Cells   []struct {
			Label      string          `json:"label"`
			Backend    json.RawMessage `json:"backend"`
			TxnsPerSec float64         `json:"txns_per_sec"`
		} `json:"cells"`
	}
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Backend != "native-tl2" || len(doc.Cells) == 0 {
		t.Fatalf("document backend %q with %d cells, want native-tl2 and every cell", doc.Backend, len(doc.Cells))
	}
	for _, c := range doc.Cells {
		if c.Backend != nil || c.TxnsPerSec <= 0 {
			t.Errorf("%s: backend %s, %.0f txns/s; want the document's backend only and a positive rate", c.Label, c.Backend, c.TxnsPerSec)
		}
	}
}

func TestCellPrintsReport(t *testing.T) {
	code, stdout, stderr := runMain(t, "-cell", "mvcc/hashtable/2", "-ops", "64")
	if code != 0 {
		t.Fatalf("exit status %d: %s", code, stderr)
	}
	for _, want := range []string{"scheme=mvcc workload=hashtable cores=2 ops=64 updates=20%", "commits: 64", "cycle breakdown:", "cache:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("report lacks %q:\n%s", want, stdout)
		}
	}
}

// The -cell help is generated from the scheme and structure tables, so it
// lists every name the value accepts.
func TestCellHelpListsEverySchemeAndStructure(t *testing.T) {
	_, _, help := runMain(t, "-h")
	for _, name := range append(harness.Schemes(), harness.StructureNames()...) {
		if !strings.Contains(help, name+"|") && !strings.Contains(help, "|"+name) {
			t.Errorf("-cell help omits %q", name)
		}
	}
}

// -events shows the measured phase, the window the counters describe: every
// counted commit is a rendered commit line, and no core's events reach back
// past the warm-up barrier (each core's span fits in the measured wall
// cycles).
func TestCellEventsCoverTheMeasuredWindow(t *testing.T) {
	code, stdout, stderr := runMain(t, "-cell", "hastm/btree/2", "-ops", "64", "-events", "100000")
	if code != 0 {
		t.Fatalf("exit status %d: %s", code, stderr)
	}
	var wall, commits, rendered uint64
	first, last := map[string]uint64{}, map[string]uint64{}
	for _, line := range strings.Split(stdout, "\n") {
		fmt.Sscanf(line, "wall cycles: %d", &wall)
		fmt.Sscanf(line, "commits: %d", &commits)
		var cycle uint64
		var core, kind string
		if n, _ := fmt.Sscanf(line, "%d %s %s", &cycle, &core, &kind); n != 3 || !strings.HasPrefix(core, "core") {
			continue
		}
		if kind == "commit" {
			rendered++
		}
		if _, seen := first[core]; !seen {
			first[core] = cycle
		}
		last[core] = cycle
	}
	if commits == 0 || rendered != commits {
		t.Errorf("%d rendered commit lines, report counts %d commits", rendered, commits)
	}
	if len(first) != 2 {
		t.Fatalf("trace names cores %v, want 2", first)
	}
	for core := range first {
		if span := last[core] - first[core]; span > wall {
			t.Errorf("%s events span %d cycles, the measured phase is %d: the trace reaches before the barrier", core, span, wall)
		}
	}
}

// -cpuprofile and -memprofile write gzipped pprof files; -progress prints
// one line per cell.
func TestProfilesAreWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	code, _, stderr := runMain(t, "-cell", "stm/bst/1", "-ops", "64", "-progress", "-cpuprofile", cpu, "-memprofile", heap)
	if code != 0 {
		t.Fatalf("exit status %d: %s", code, stderr)
	}
	for _, f := range []string{cpu, heap} {
		if b, err := os.ReadFile(f); err != nil || len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s: %v, want a gzip file", f, err)
		}
	}
	if !strings.Contains(stderr, "[  1/  1] cell") {
		t.Errorf("no -progress line on stderr:\n%s", stderr)
	}
}

// A profile or trace that cannot be written fails the run (exit 1) and
// names its flag; a trace to '-' goes to stderr and one to a device is
// written in place.
func TestUnwritableOutputsFailTheRun(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "out")
	for _, c := range []struct{ flag, want string }{
		{"-cpuprofile", "hastm-bench: -cpuprofile: "},
		{"-memprofile", "hastm-bench: -memprofile: "},
		{"-trace", "hastm-bench: trace: "},
	} {
		code, _, stderr := runMain(t, "-cell", "stm/bst/1", "-ops", "64", c.flag, missing)
		if code != 1 || !strings.Contains(stderr, c.want) {
			t.Errorf("%s %s: exit %d, stderr %q; want 1 and %q", c.flag, missing, code, stderr, c.want)
		}
	}
	code, _, stderr := runMain(t, "-cell", "stm/bst/1", "-ops", "64", "-trace", "-")
	if code != 0 || !strings.Contains(stderr, `"ev":"begin"`) {
		t.Errorf("-trace -: exit %d, stderr lacks the trace:\n%s", code, stderr)
	}
	if code, _, stderr := runMain(t, "-cell", "stm/bst/1", "-ops", "64", "-trace", os.DevNull); code != 0 {
		t.Errorf("-trace %s: exit %d: %s", os.DevNull, code, stderr)
	}
}

// A report that cannot be written to stdout fails the run.
func TestUnwritableStdoutFailsTheRun(t *testing.T) {
	ro, err := os.Open(os.DevNull) // read-only: every write fails
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	oldArgs, oldOut, oldErr, oldFlags := os.Args, os.Stdout, os.Stderr, flag.CommandLine
	defer func() { os.Args, os.Stdout, os.Stderr, flag.CommandLine = oldArgs, oldOut, oldErr, oldFlags }()
	stderr := filepath.Join(t.TempDir(), "stderr")
	if os.Stderr, err = os.Create(stderr); err != nil {
		t.Fatal(err)
	}
	os.Args = []string{"hastm-bench", "-quick", "-fig", "fig16", "-json"}
	os.Stdout = ro
	flag.CommandLine = flag.NewFlagSet("hastm-bench", flag.ContinueOnError)
	code := realMain()
	os.Stderr.Close()
	if b, _ := os.ReadFile(stderr); code != 1 || !strings.Contains(string(b), "hastm-bench: report: ") {
		t.Errorf("exit %d, stderr %q; want 1 and a report error", code, b)
	}
}
