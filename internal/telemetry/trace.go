package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// TxnEvent is the one event record of the simulator's trace plane: the
// transactional life-cycle (begin, abort with cause, commit, retry-wait,
// software fallback, mode switch) stamped with the emitting core's clock,
// a per-thread transaction id and the attempt (retry) index. Set sizes are
// carried on terminal events so analysis can bucket by footprint. It has
// two renderings, both derived from these fields alone: one JSON object
// per line (WriteJSONL) and one text line (Text).
type TxnEvent struct {
	Cell   string `json:"cell,omitempty"` // experiment cell label (added by the harness)
	Core   int    `json:"core"`
	Cycle  uint64 `json:"cycle"`
	Txn    uint64 `json:"txn"`   // per-core transaction sequence number
	Retry  int    `json:"retry"` // attempt index, 0 = first execution
	Kind   string `json:"ev"`    // one of EventKinds
	Cause  string `json:"cause,omitempty"`
	Reads  int    `json:"reads,omitempty"`
	Writes int    `json:"writes,omitempty"`
	Undo   int    `json:"undo,omitempty"`
	Watch  int    `json:"watch,omitempty"` // EvRetry: size of the wait set the thread blocks on
}

// Trace event kinds.
const (
	EvBegin    = "begin"
	EvCommit   = "commit"
	EvAbort    = "abort"
	EvRetry    = "retry"
	EvFallback = "fallback"
	EvMode     = "mode"
	// EvError terminates a transaction whose body returned an error: the
	// attempt rolled back and will not re-execute, but nothing conflicted,
	// so it is deliberately NOT an abort (abort counters and traced abort
	// events must stay in one-to-one correspondence).
	EvError = "error"
	// EvEscalate marks a transaction whose retry budget ran out: the thread
	// is about to acquire the global irrevocable token. Emitted before the
	// escalated attempt's begin event.
	EvEscalate = "escalate"
	// EvIrrevocable marks an attempt that began holding the irrevocable
	// token: it has no abort path and must terminate with commit (or a body
	// error). Emitted after the attempt's begin event.
	EvIrrevocable = "irrevocable"
	// EvShed marks a service request rejected by admission control before
	// its transaction ever began: nothing executed, nothing conflicted, so
	// it is a standalone event — no begin precedes it and no fake abort
	// follows it (mirroring the body-error rule above).
	EvShed = "shed"
	// EvSerialize marks a service request that admission control routed
	// through the irrevocable ladder because it targets a hot key. It is
	// informational: the transaction's own begin/escalate/irrevocable/commit
	// events follow as usual.
	EvSerialize = "serialize"
	// EvUpgrade marks an MVCC snapshot attempt that revalidated its read set
	// at its first store and upgraded in place to writer mode. Informational:
	// the attempt's own begin/commit (or abort) events carry the life-cycle.
	EvUpgrade = "upgrade"
	// EvWriterRestart terminates an MVCC snapshot attempt whose first store
	// found the begin-time snapshot stale (a read was served from history or
	// a read record has advanced): the attempt restarts pinned to writer
	// mode. Like EvRetry it is a terminal that is deliberately NOT an abort —
	// no conflict was lost, the scheme switched read strategies (abort
	// counters and traced abort events must stay in one-to-one
	// correspondence).
	EvWriterRestart = "writer-restart"
	// EvDegrade marks a graceful-degradation ladder transition on a
	// service core: the cause names the level engaged ("shed-scans",
	// "shed-transfers") or "recover" when one disengages. Informational:
	// the shed requests themselves appear as EvShed events with
	// slo-scan/slo-transfer/hot-key-open causes.
	EvDegrade = "degrade"
	// EvValidate marks a read-set validation: cause "fast" when the mark
	// counter proved the read set intact without walking it (Fig 6), "full"
	// when it was walked; reads is the read-set size. Informational.
	EvValidate = "validate"
)

// EventKinds is the trace vocabulary in display order: every kind a
// well-formed trace may carry.
var EventKinds = []string{EvBegin, EvCommit, EvAbort, EvRetry, EvFallback, EvMode, EvError, EvEscalate,
	EvIrrevocable, EvShed, EvSerialize, EvUpgrade, EvWriterRestart, EvDegrade, EvValidate}

// TraceBuffer collects transaction events from every core of one machine.
// Core programs are coroutines that run one at a time on the scheduler's
// thread, so appends are single-threaded and their order is deterministic
// for a given scheduler; the mutex only keeps the type safe to share. When
// full, further events are dropped and counted, bounding memory on long
// runs.
type TraceBuffer struct {
	mu      sync.Mutex
	events  []TxnEvent
	limit   int
	dropped uint64
}

// DefaultTraceLimit is the event cap used when NewTraceBuffer gets 0.
const DefaultTraceLimit = 1 << 16

// NewTraceBuffer creates a buffer holding at most limit events (0 = 64k).
func NewTraceBuffer(limit int) *TraceBuffer {
	if limit <= 0 {
		limit = DefaultTraceLimit
	}
	return &TraceBuffer{limit: limit}
}

// Add appends one event, dropping it if the buffer is full.
func (b *TraceBuffer) Add(ev TxnEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.events) >= b.limit {
		b.dropped++
		return
	}
	b.events = append(b.events, ev)
}

// Events returns the collected events in canonical order: ascending
// (cycle, core), ties broken by per-core emission order. Raw append order
// is deterministic but scheduler-dependent: cores emit from host code
// between grants, which runs on past a given-up lease, and host code after
// a core-private Exec runs at the position of the preceding shared
// operation under the lease scheduler but at the Exec's own grant under the
// reference scheduler. Each event's CONTENT (clocks, causes, set sizes) is
// the same under both, so a stable sort on it yields the same sequence on
// every run, worker count and scheduler. Per-core program order is
// preserved: a core's clock never decreases, and the stable sort keeps
// equal-keyed events in append order, which is program order within one
// core. (If the buffer overflowed, WHICH events were dropped follows raw
// append order, so an overflowed trace is not comparable across -sched;
// keep the cap above the workload's event count when byte-stable output
// matters.)
func (b *TraceBuffer) Events() []TxnEvent {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]TxnEvent, len(b.events))
	copy(out, b.events)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Cycle != out[j].Cycle {
			return out[i].Cycle < out[j].Cycle
		}
		return out[i].Core < out[j].Core
	})
	return out
}

// Len returns the number of collected events.
func (b *TraceBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}

// Reset discards all collected events and the drop count. The harness
// calls it at the post-warmup barrier so the trace describes exactly the
// same measured window as the statistics and telemetry counters.
func (b *TraceBuffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.events = b.events[:0]
	b.dropped = 0
}

// Dropped returns how many events were discarded after the buffer filled.
func (b *TraceBuffer) Dropped() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// Check verifies the attempt life cycle of every core in the buffer. Each
// begin reaches exactly one terminal: commit, abort, retry, error or
// writer-restart, or a fallback, which a hybrid scheme also emits with no
// begin pending once its hardware attempts run out. An attempt marked
// irrevocable has no abort path, so it ends in commit or a body error. A
// shed request stands alone, outside any attempt. Every kind must be one of
// EventKinds and no retry index negative. A buffer that dropped events
// holds only a prefix of each core's program order, so for it a begin
// still pending at the end is no violation. The error names the core and
// the event.
func (b *TraceBuffer) Check() error {
	type attempt struct{ begin, irrevocable *TxnEvent }
	open := map[int]attempt{} // core → its unterminated attempt
	evs := b.Events()
	for i := range evs {
		ev := &evs[i]
		if ev.Retry < 0 {
			return violation(ev, ": negative retry index %d", ev.Retry)
		}
		a, pending := open[ev.Core]
		switch ev.Kind {
		case EvBegin, EvShed:
			if pending {
				return violation(ev, " while the begin at cycle %d is unterminated", a.begin.Cycle)
			}
			if ev.Kind == EvBegin {
				open[ev.Core] = attempt{begin: ev}
			}
		case EvCommit, EvError, EvAbort, EvRetry, EvWriterRestart:
			if !pending {
				return violation(ev, " with no begin pending")
			}
			if a.irrevocable != nil && ev.Kind != EvCommit && ev.Kind != EvError {
				return violation(ev, " ends the irrevocable attempt marked at cycle %d", a.irrevocable.Cycle)
			}
			delete(open, ev.Core)
		case EvFallback:
			delete(open, ev.Core)
		case EvIrrevocable:
			if !pending {
				return violation(ev, " with no begin pending")
			}
			a.irrevocable = ev
			open[ev.Core] = a
		case EvMode, EvEscalate, EvSerialize, EvUpgrade, EvDegrade, EvValidate:
			// Informational: no part of the life cycle.
		default:
			return violation(ev, ": unknown event kind")
		}
	}
	if b.Dropped() > 0 {
		return nil
	}
	var first *TxnEvent
	for _, a := range open {
		if first == nil || a.begin.Cycle < first.Cycle || a.begin.Cycle == first.Cycle && a.begin.Core < first.Core {
			first = a.begin
		}
	}
	if first != nil {
		return violation(first, " never terminated")
	}
	return nil
}

// violation is Check's error: the core and the event, then what is wrong.
func violation(ev *TxnEvent, format string, args ...any) error {
	return fmt.Errorf("core %d: %s at cycle %d"+format, append([]any{ev.Core, ev.Kind, ev.Cycle}, args...)...)
}

// Text renders the event as one text line (hastm-bench -events, the
// watchdog's recent-event tail): clock, core, kind, then attempt=<retry> for a begin
// and the cause and non-zero sizes for every other kind.
func (e TxnEvent) Text() string {
	var d []byte
	if e.Kind == EvBegin {
		d = fmt.Appendf(d, "attempt=%d", e.Retry)
	} else {
		d = append(d, e.Cause...)
		for _, f := range [...]struct {
			name string
			n    int
		}{{"reads", e.Reads}, {"writes", e.Writes}, {"undo", e.Undo}, {"watch", e.Watch}} {
			if f.n != 0 {
				if len(d) > 0 {
					d = append(d, ' ')
				}
				d = fmt.Appendf(d, "%s=%d", f.name, f.n)
			}
		}
	}
	return fmt.Sprintf("%10d  core%-2d %-10s %s", e.Cycle, e.Core, e.Kind, d)
}

// Render writes the first n events (0 = all), in canonical order, as text
// lines.
func (b *TraceBuffer) Render(w io.Writer, n int) {
	evs := b.Events()
	if n > 0 && len(evs) > n {
		evs = evs[:n]
	}
	for _, e := range evs {
		fmt.Fprintln(w, e.Text())
	}
}

// WriteJSONL writes every collected event as one JSON object per line,
// stamping each with the given cell label. The write happens under the
// SyncWriter's lock as a single atomic block, so traces from concurrently
// finishing cells never interleave within a line or within a cell.
func (b *TraceBuffer) WriteJSONL(w *SyncWriter, cell string) error {
	events := b.Events()
	return w.WriteBlock(func(out io.Writer) error {
		enc := json.NewEncoder(out)
		for i := range events {
			events[i].Cell = cell
			if err := enc.Encode(&events[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// SyncWriter serialises whole-line (and whole-block) writes to an
// underlying writer. hastm-bench routes both -progress lines and -trace
// JSONL through one of these so concurrent workers can never interleave
// output mid-line — the bug class this type exists to make impossible.
type SyncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// NewSyncWriter wraps w.
func NewSyncWriter(w io.Writer) *SyncWriter { return &SyncWriter{w: w} }

// Printf formats one line (the caller supplies the trailing newline) and
// writes it atomically with respect to every other Printf and WriteBlock.
func (s *SyncWriter) Printf(format string, args ...interface{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.w, format, args...)
}

// WriteBlock runs f with exclusive, buffered access to the underlying
// writer: everything f writes is flushed as one contiguous block.
func (s *SyncWriter) WriteBlock(f func(io.Writer) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	bw := bufio.NewWriter(s.w)
	if err := f(bw); err != nil {
		return err
	}
	return bw.Flush()
}
