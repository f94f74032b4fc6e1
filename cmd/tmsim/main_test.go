package main

import (
	"bytes"
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
