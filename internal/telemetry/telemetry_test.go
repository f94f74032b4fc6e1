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
