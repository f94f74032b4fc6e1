package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// The verdict suites honour -mapping on a multi-socket -topology: the same
// sweep placed scatter must not print what it prints placed compact.
func TestMappingReachesVerdictSuites(t *testing.T) {
	for _, suite := range [][]string{
		{"-quick", "-faults", "suspend=900,evict=600,seed=3"},
		{"-adversarial", "storm"},
	} {
		args := func(mapping string) []string {
			return append(append([]string{}, suite...), "-topology", "2x8", "-j", "2", "-mapping", mapping)
		}
		codeC, compact, _ := runMain(t, args("compact")...)
		codeS, scatter, _ := runMain(t, args("scatter")...)
		if codeC != 0 || codeS != 0 {
			t.Errorf("%v: exit status %d (compact), %d (scatter)", suite, codeC, codeS)
		}
		if compact == scatter {
			t.Errorf("%v: scatter output is byte-identical to compact", suite)
		}
		if !strings.Contains(compact, "0 failed") {
			t.Errorf("%v: compact run did not pass:\n%s", suite, compact)
		}
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

// Every suite checks -topology against its own largest cell: the 4-core
// verdict suites run on the smallest two-socket machines, the figures still
// need 16 cores, and the service 8.
func TestTopologyCapIsPerSuite(t *testing.T) {
	for _, args := range [][]string{
		{"-quick", "-faults", "suspend=900,seed=3", "-topology", "2x2"},
		{"-adversarial", "storm", "-topology", "2x2"},
		{"-adversarial", "storm", "-topology", "1x4", "-trace", filepath.Join(t.TempDir(), "ignored.jsonl")},
	} {
		code, stdout, stderr := runMain(t, args...)
		if code != 0 || !strings.Contains(stdout, " 0 failed") {
			t.Errorf("%v: exit status %d\n%s%s", args, code, stdout, stderr)
		}
	}
	for want, args := range map[string][]string{
		"use up to 16 threads": {"-quick", "-fig", "fig11", "-topology", "2x2"},
		"use up to 8 threads":  {"-quick", "-service", "-topology", "2x2"},
		"use up to 4 threads":  {"-quick", "-faults", "seed=3", "-topology", "1x2"},
	} {
		code, stdout, stderr := runMain(t, args...)
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "hastm-bench: -topology: ") || !strings.Contains(stderr, want) {
			t.Errorf("%v: exit status %d, want 2 and %q:\n%s%s", args, code, want, stdout, stderr)
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
		{"-trace-max:", []string{"-trace-max", "-5"}},
		{`unexpected argument "stray"`, []string{"stray"}},
		{`unexpected argument "fig11"`, []string{"-quick", "fig11"}},
		{"-bogus", []string{"-bogus"}},
		{`-sched: unknown scheduler "fifo" (want lease or reference)`, []string{"-sched", "fifo"}},
		{`-backend: unknown backend "gpu" (want sim or native)`, []string{"-backend", "gpu"}},
		{`-adversarial: unknown cell set "most" (want all, storm or starve)`, []string{"-adversarial", "most"}},
		{`-faults: faults: unknown key "frob" (want suspend, evict, snoop, htmabort or seed)`, []string{"-faults", "frob=1"}},
		{`-chaos: chaos: "stall" is not key=value`, []string{"-chaos", "stall"}},
		{"-topology:", []string{"-topology", "2by2"}},
		{`-mapping: unknown thread mapping "spread" (want compact or scatter)`, []string{"-mapping", "spread"}},
		{`-placement: mem: unknown placement policy "striped" (want interleave or first-touch)`, []string{"-placement", "striped"}},
		{"-fig:", []string{"-fig", "fig99"}},
		// two suite selectors at once
		{"-faults:", []string{"-service", "-faults", "suspend=900,seed=3", "-fig", "fig99"}},
		{"-adversarial:", []string{"-service", "-adversarial", "all"}},
		{"-adversarial:", []string{"-faults", "seed=3", "-adversarial", "all"}},
		{"-chaos:", []string{"-faults", "seed=3", "-chaos", "abort=3"}},
		{"-chaos:", []string{"-quick", "-service", "-chaos", "abort=3"}},
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
		{"-csv:", []string{"-adversarial", "all", "-csv"}},
		{"-csv:", []string{"-backend", "native", "-chaos", "abort=3", "-csv"}},
		{"-cycle-budget:", []string{"-adversarial", "all", "-cycle-budget", "5"}},
		// a simulated-machine knob on the host backend
		{"-topology:", []string{"-backend", "native", "-topology", "2x8"}},
		{"-sched:", []string{"-backend", "native", "-service", "-sched", "reference"}},
		{"-watchdog-window:", []string{"-backend", "native", "-watchdog-window", "0"}},
	} {
		code, stdout, stderr := runMain(t, tc.args...)
		if code != 2 || stdout != "" {
			t.Errorf("%v: exit status %d, %d bytes of stdout; want 2 and none\n%s", tc.args, code, len(stdout), stderr)
		}
		if !strings.HasPrefix(stderr, "hastm-bench: ") || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, tc.names) {
			t.Errorf("%v: stderr is not one hastm-bench: line naming %q:\n%s", tc.args, tc.names, stderr)
		}
	}
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
		{"native suite, native", append(native, "-csv", "-chaos", "off")},
		{"native suite, native", append(native, "-csv", "-chaos", "seed=3")},
		{"faultstorm suite, sim", []string{"-quick", "-chaos", "abort=40,seed=3"}},
		{"chaosstorm suite, native", append(native, "-chaos", "abort=40,seed=3")},
	} {
		code, stdout, stderr := runMain(t, tc.args...)
		storm := strings.Contains(tc.suite, "storm")
		if code != 0 || !strings.Contains(stderr, "hastm-bench: "+tc.suite+" backend") || strings.Contains(stdout, "storm: ") != storm {
			t.Errorf("%v: exit status %d, want 0 and the %s backend:\n%s%s", tc.args, code, tc.suite, stdout, stderr)
		}
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
		for _, name := range append(strings.Fields(commonFlags+" "+simOnlyFlags+" "+s.honours), s.selectors...) {
			if !strings.Contains(help, "\n  -"+name+" ") && !strings.Contains(help, "\n  -"+name+"\n") {
				t.Errorf("the %s suite names a flag -%s that -h does not list", s.name, name)
			}
		}
	}
	if n := strings.Count(commands, "\n| `"); n != len(suites)+3 {
		t.Errorf("README \"Commands\" has %d rows, want the %d suites and the three other commands", n, len(suites))
	}
}
