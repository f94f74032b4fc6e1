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
