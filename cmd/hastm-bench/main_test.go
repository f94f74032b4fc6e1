package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runMain runs the command in-process with the given arguments and returns
// its exit status and stdout.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	oldArgs, oldOut, oldErr, oldFlags := os.Args, os.Stdout, os.Stderr, flag.CommandLine
	defer func() {
		os.Args, os.Stdout, os.Stderr, flag.CommandLine = oldArgs, oldOut, oldErr, oldFlags
		null.Close()
	}()
	os.Args = append([]string{"hastm-bench"}, args...)
	os.Stdout, os.Stderr = out, null
	flag.CommandLine = flag.NewFlagSet("hastm-bench", flag.ContinueOnError)
	code := realMain()
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(text)
}

// -ops smaller than a cell's thread count used to print 0.000 down the
// 16-processor column and exit 0; the cells now fail and so does the run.
func TestUnsplittableOpsFailsTheRun(t *testing.T) {
	code, _ := runMain(t, "-quick", "-ops", "8", "-fig", "fig11", "-j", "2")
	if code != 1 {
		t.Errorf("exit status %d, want 1", code)
	}
	if code, _ := runMain(t, "-quick", "-ops", "16", "-fig", "fig11", "-j", "2"); code != 0 {
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
		codeC, compact := runMain(t, args("compact")...)
		codeS, scatter := runMain(t, args("scatter")...)
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
