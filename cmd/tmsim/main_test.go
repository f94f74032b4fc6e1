package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hastm.dev/hastm/internal/harness"
)

func TestUnsplittableOpsExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-cores", "4", "-ops", "3"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit status %d, want 2", code)
	}
	if got := stderr.String(); !strings.Contains(got, "ops 3 cannot be split over 4 threads") {
		t.Errorf("stderr %q does not name the -ops value and the core count", got)
	}
	if stdout.Len() != 0 {
		t.Errorf("a rejected configuration still printed a report:\n%s", stdout.String())
	}
}

// The -scheme help is generated from the scheme table, so it lists every
// scheme -scheme accepts.
func TestSchemeHelpListsEveryScheme(t *testing.T) {
	var stdout, stderr bytes.Buffer
	run([]string{"-h"}, &stdout, &stderr)
	for _, scheme := range harness.Schemes() {
		if !strings.Contains(stderr.String(), scheme+"|") && !strings.Contains(stderr.String(), "|"+scheme) {
			t.Errorf("-scheme help omits %q", scheme)
		}
	}
}

func TestRunPrintsReport(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scheme", "mvcc", "-workload", "hashtable", "-cores", "2", "-ops", "64", "-keys", "128"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "commits: 64") {
		t.Errorf("report does not show the 64 committed operations:\n%s", stdout.String())
	}
}

// -trace shows the measured phase, the window the counters describe: every
// counted commit is a rendered commit line, and no core's events reach back
// past the warm-up barrier (each core's span fits in the measured wall
// cycles).
func TestTraceCoversTheMeasuredWindow(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scheme", "hastm", "-workload", "btree", "-cores", "2", "-ops", "64", "-trace", "100000"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d: %s", code, stderr.String())
	}
	var wall, commits, rendered uint64
	first, last := map[string]uint64{}, map[string]uint64{}
	for _, line := range strings.Split(stdout.String(), "\n") {
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

// Every rejected invocation: exit 2, one "tmsim:" line naming the problem,
// no report — never a core panic from deep inside the run or a silently
// accepted nonsense value.
func TestRejectedInvocations(t *testing.T) {
	for _, tc := range []struct {
		names string
		args  []string
	}{
		{"-keys:", []string{"-keys", "0"}},
		{"-updates:", []string{"-updates", "150"}},
		{"-updates:", []string{"-updates", "-1"}},
		{"-trace:", []string{"-trace", "-1"}},
		{`unexpected argument "btree"`, []string{"-scheme", "stm", "btree"}},
		{"ops 3 cannot be split over 4 threads", []string{"-cores", "4", "-ops", "3"}},
		{"ops 0 cannot be split", []string{"-ops", "0"}},
		{"cores must be >= 1", []string{"-cores", "0"}},
		{`unknown scheme "tl3"`, []string{"-scheme", "tl3"}},
		{`unknown workload "list"`, []string{"-workload", "list"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit status %d, %d bytes of report; want 2 and none", tc.args, code, stdout.Len())
		}
		got := stderr.String()
		if !strings.HasPrefix(got, "tmsim: ") || strings.Count(got, "\n") != 1 || !strings.Contains(got, tc.names) {
			t.Errorf("%v: stderr is not one tmsim: line naming %q:\n%s", tc.args, tc.names, got)
		}
	}
}
