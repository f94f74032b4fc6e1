package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestTraceBufferCapAndDrops(t *testing.T) {
	b := NewTraceBuffer(2)
	for i := 0; i < 5; i++ {
		b.Add(TxnEvent{Txn: uint64(i), Kind: EvBegin})
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	if b.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", b.Dropped())
	}
	evs := b.Events()
	if evs[0].Txn != 0 || evs[1].Txn != 1 {
		t.Fatalf("events out of order: %+v", evs)
	}
}

func TestWriteJSONLStampsCell(t *testing.T) {
	b := NewTraceBuffer(0)
	b.Add(TxnEvent{Core: 1, Cycle: 10, Txn: 3, Retry: 1, Kind: EvAbort, Cause: "read-validation", Reads: 7})
	var buf bytes.Buffer
	w := NewSyncWriter(&buf)
	if err := b.WriteJSONL(w, "stm/bst/1"); err != nil {
		t.Fatal(err)
	}
	var ev TxnEvent
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	if ev.Cell != "stm/bst/1" || ev.Cause != "read-validation" || ev.Reads != 7 {
		t.Fatalf("round-trip mismatch: %+v", ev)
	}
}

// The satellite regression test: many goroutines hammering one SyncWriter
// with Printf lines and WriteBlock multi-line blocks must never interleave
// output mid-line or mid-block.
func TestSyncWriterNoInterleaving(t *testing.T) {
	var buf bytes.Buffer
	w := NewSyncWriter(&buf)
	const workers = 8
	const lines = 200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < lines; i++ {
				if i%10 == 0 {
					// A multi-line block: both lines must stay adjacent.
					err := w.WriteBlock(func(out io.Writer) error {
						fmt.Fprintf(out, "block %d %d head\n", g, i)
						fmt.Fprintf(out, "block %d %d tail\n", g, i)
						return nil
					})
					if err != nil {
						t.Errorf("WriteBlock: %v", err)
					}
				} else {
					w.Printf("line worker=%d seq=%d end\n", g, i)
				}
			}
		}(g)
	}
	wg.Wait()

	sc := bufio.NewScanner(&buf)
	var prevBlockHead string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "line "):
			if !strings.HasSuffix(line, " end") {
				t.Fatalf("torn line: %q", line)
			}
		case strings.HasSuffix(line, " head"):
			prevBlockHead = strings.TrimSuffix(line, " head")
		case strings.HasSuffix(line, " tail"):
			if prevBlockHead != strings.TrimSuffix(line, " tail") {
				t.Fatalf("block torn apart: head %q, tail line %q", prevBlockHead, line)
			}
			prevBlockHead = ""
		default:
			t.Fatalf("corrupt line: %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestEventsCanonicalOrder(t *testing.T) {
	// Append order is host-scheduling dependent in real runs; Events must
	// return the canonical (cycle, core) order with per-core program order
	// preserved on cycle ties.
	b := NewTraceBuffer(0)
	b.Add(TxnEvent{Core: 2, Cycle: 5, Kind: EvBegin})
	b.Add(TxnEvent{Core: 0, Cycle: 9, Kind: EvCommit})
	b.Add(TxnEvent{Core: 1, Cycle: 5, Kind: EvBegin})
	b.Add(TxnEvent{Core: 2, Cycle: 5, Kind: EvAbort}) // same (cycle, core): stays after its begin
	b.Add(TxnEvent{Core: 0, Cycle: 1, Kind: EvBegin})

	got := b.Events()
	want := []struct {
		core  int
		cycle uint64
		kind  string
	}{
		{0, 1, EvBegin},
		{1, 5, EvBegin},
		{2, 5, EvBegin},
		{2, 5, EvAbort},
		{0, 9, EvCommit},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Core != w.core || got[i].Cycle != w.cycle || got[i].Kind != w.kind {
			t.Errorf("event %d = core %d cycle %d %s, want core %d cycle %d %s",
				i, got[i].Core, got[i].Cycle, got[i].Kind, w.core, w.cycle, w.kind)
		}
	}
}

// Every kind of the vocabulary has its text rendering from the event's
// fields alone, naming the kind, the cause and the sizes, and a validate
// inside a begin/commit pair passes Check as informational.
func TestEveryKindRendersAndValidateIsCheckClean(t *testing.T) {
	for _, kind := range EventKinds {
		ev := TxnEvent{Core: 3, Cycle: 1200, Retry: 2, Kind: kind, Cause: "why", Reads: 7, Watch: 2}
		want := "      1200  core3  " + kind
		detail := "why reads=7 watch=2"
		if kind == EvBegin {
			detail = "attempt=2"
		}
		if got := ev.Text(); !strings.HasPrefix(got, want) || !strings.HasSuffix(got, " "+detail) {
			t.Errorf("%s renders %q, want prefix %q and detail %q", kind, got, want, detail)
		}
	}

	b := NewTraceBuffer(0)
	b.Add(TxnEvent{Cycle: 1, Txn: 1, Kind: EvBegin})
	b.Add(TxnEvent{Cycle: 2, Txn: 1, Kind: EvValidate, Cause: "fast", Reads: 4})
	b.Add(TxnEvent{Cycle: 3, Txn: 1, Kind: EvCommit, Reads: 4})
	if err := b.Check(); err != nil {
		t.Errorf("Check rejects a begin/validate/commit trace: %v", err)
	}
}

// Check holds each core to the attempt life cycle: one case per rule, and
// clean traces that exercise every legal path.
func TestCheckLifeCycle(t *testing.T) {
	// on is one core's events, stamped at cycles 1, 2, 3, ...
	on := func(core int, kinds ...string) []TxnEvent {
		evs := make([]TxnEvent, len(kinds))
		for i, k := range kinds {
			evs[i] = TxnEvent{Core: core, Cycle: uint64(i + 1), Kind: k}
		}
		return evs
	}
	for _, tc := range []struct {
		name  string
		limit int // buffer cap; 0 = the default
		evs   []TxnEvent
		want  string // "" = clean
	}{
		{name: "begin while a begin is pending", evs: on(1, EvBegin, EvBegin),
			want: "core 1: begin at cycle 2 while the begin at cycle 1 is unterminated"},
		{name: "terminal with no begin", evs: on(0, EvBegin, EvCommit, EvAbort),
			want: "core 0: abort at cycle 3 with no begin pending"},
		{name: "abort after an irrevocable marker", evs: on(2, EvBegin, EvIrrevocable, EvAbort),
			want: "core 2: abort at cycle 3 ends the irrevocable attempt marked at cycle 2"},
		{name: "retry after an irrevocable marker", evs: on(2, EvBegin, EvIrrevocable, EvRetry),
			want: "core 2: retry at cycle 3 ends the irrevocable attempt marked at cycle 2"},
		{name: "writer-restart after an irrevocable marker", evs: on(2, EvBegin, EvIrrevocable, EvWriterRestart),
			want: "core 2: writer-restart at cycle 3 ends the irrevocable attempt marked at cycle 2"},
		{name: "irrevocable marker with no begin", evs: on(0, EvEscalate, EvIrrevocable),
			want: "core 0: irrevocable at cycle 2 with no begin pending"},
		{name: "shed in the middle of an attempt", evs: on(3, EvBegin, EvShed),
			want: "core 3: shed at cycle 2 while the begin at cycle 1 is unterminated"},
		{name: "begin never terminated", evs: append(on(1, EvBegin, EvCommit, EvBegin), on(0, EvShed, EvBegin)...),
			want: "core 0: begin at cycle 2 never terminated"},
		{name: "unknown kind", evs: on(0, EvBegin, "bogus"),
			want: "core 0: bogus at cycle 2: unknown event kind"},
		{name: "negative retry", evs: []TxnEvent{{Core: 4, Cycle: 7, Retry: -1, Kind: EvBegin}},
			want: "core 4: begin at cycle 7: negative retry index -1"},
		{name: "every legal path", evs: append(on(0,
			EvBegin, EvValidate, EvUpgrade, EvCommit, // informational kinds inside an attempt
			EvBegin, EvAbort, EvBegin, EvRetry, EvBegin, EvWriterRestart, EvBegin, EvMode, EvFallback,
			EvFallback, // a hybrid's attempts-exhausted fallback needs no begin
			EvEscalate, EvBegin, EvIrrevocable, EvCommit, EvBegin, EvIrrevocable, EvError,
			EvSerialize, EvShed, EvDegrade, EvBegin, EvError),
			on(1, EvBegin, EvCommit)...)},
		{name: "dropped tail with a dangling begin", limit: 3, evs: on(0, EvBegin, EvCommit, EvBegin, EvCommit)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewTraceBuffer(tc.limit)
			for _, ev := range tc.evs {
				b.Add(ev)
			}
			err := b.Check()
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("Check = %v, want clean", err)
			case tc.want != "" && (err == nil || err.Error() != tc.want):
				t.Errorf("Check = %v, want %q", err, tc.want)
			}
		})
	}
}
