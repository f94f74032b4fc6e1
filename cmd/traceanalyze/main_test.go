package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hastm.dev/hastm/internal/telemetry"
)

// Every kind of the vocabulary has both renderings, from the event's
// fields alone: a text line naming the kind, cause and sizes, and a JSONL
// line -strict accepts — validate included, as informational inside a
// begin/commit pair.
func TestEveryKindRendersAndValidateIsStrictClean(t *testing.T) {
	for _, kind := range telemetry.EventKinds {
		ev := telemetry.TxnEvent{Core: 3, Cycle: 1200, Retry: 2, Kind: kind, Cause: "why", Reads: 7, Watch: 2}
		want := "      1200  core3  " + kind
		detail := "why reads=7 watch=2"
		if kind == telemetry.EvBegin {
			detail = "attempt=2"
		}
		if got := ev.Text(); !strings.HasPrefix(got, want) || !strings.HasSuffix(got, " "+detail) {
			t.Errorf("%s renders %q, want prefix %q and detail %q", kind, got, want, detail)
		}
	}

	b := telemetry.NewTraceBuffer(0)
	b.Add(telemetry.TxnEvent{Cycle: 1, Txn: 1, Kind: telemetry.EvBegin})
	b.Add(telemetry.TxnEvent{Cycle: 2, Txn: 1, Kind: telemetry.EvValidate, Cause: "fast", Reads: 4})
	b.Add(telemetry.TxnEvent{Cycle: 3, Txn: 1, Kind: telemetry.EvCommit, Reads: 4})
	path := filepath.Join(t.TempDir(), "t.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSONL(telemetry.NewSyncWriter(f), "cell"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := analyzeJSONL(path, 0, true); err != nil {
		t.Errorf("-strict rejects a begin/validate/commit trace: %v", err)
	}
}

// The Fig 13 workload analysis is hastm-bench's fig13: with no trace file
// the command is rejected.
func TestNoTraceFileExitsTwo(t *testing.T) {
	if code := run(nil); code != 2 {
		t.Errorf("exit status %d, want 2", code)
	}
}

// A negative -top is refused by name before the trace is read, not taken
// as "show every cell".
func TestNegativeTopExitsTwo(t *testing.T) {
	stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	defer func() { os.Stderr = old }()
	os.Stderr = stderr
	code := run([]string{"-top", "-3", "t.jsonl"})
	stderr.Close()
	msg, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 || !strings.Contains(string(msg), "-top:") {
		t.Errorf("exit status %d, stderr %q; want 2 and a message naming -top", code, msg)
	}
}
