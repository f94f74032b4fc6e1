package sim

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"hastm.dev/hastm/internal/telemetry"
)

// TraceEvent is one timestamped record of TM activity, for debugging and
// for the tmsim -trace flag. Events are a diagnostic facility: they carry
// no simulated cost and do not perturb runs.
type TraceEvent struct {
	Cycle  uint64 // the emitting core's local clock
	Core   int
	Kind   string // "begin", "commit", "abort", "validate", ...
	Detail string
}

// TraceBuffer collects events from all cores. Core programs are coroutines
// on one thread, so appends are single-threaded and deterministic for a
// given scheduler, but raw append order differs between the lease and
// reference loops: host code after a core-private Exec runs at the position
// of the preceding shared operation in one and at the Exec's own grant in
// the other. Events() canonicalises into (cycle, core) order, which depends
// only on simulated state, so rendered traces are byte-identical across
// runs, worker counts and schedulers — unless the buffer overflowed: which
// events were dropped follows append order, so an overflowed buffer is not
// comparable across -sched.
type TraceBuffer struct {
	mu     sync.Mutex
	events []TraceEvent
	limit  int
}

// NewTraceBuffer creates a buffer holding at most limit events (0 = 64k).
// When full, further events are dropped and counted.
func NewTraceBuffer(limit int) *TraceBuffer {
	if limit <= 0 {
		limit = 1 << 16
	}
	return &TraceBuffer{limit: limit}
}

func (b *TraceBuffer) add(ev TraceEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.events) < b.limit {
		b.events = append(b.events, ev)
	}
}

// Events returns the collected events in canonical (cycle, core) order,
// ties within one core broken by that core's emission order. A core's
// clock never decreases and the stable sort keeps equal-keyed events in
// append order — which within one core IS program order — so the result
// does not depend on the scheduler-specific cross-core append order.
func (b *TraceBuffer) Events() []TraceEvent {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]TraceEvent, len(b.events))
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

// Render writes up to max events as text lines (0 = all).
func (b *TraceBuffer) Render(w io.Writer, max int) {
	evs := b.Events()
	if max > 0 && len(evs) > max {
		evs = evs[:max]
	}
	for _, e := range evs {
		fmt.Fprintf(w, "%10d  core%-2d %-10s %s\n", e.Cycle, e.Core, e.Kind, e.Detail)
	}
}

// SetTrace attaches a trace buffer to the machine; nil detaches it.
// Attach before Run.
func (m *Machine) SetTrace(b *TraceBuffer) { m.trace = b }

// Trace returns the attached buffer, or nil.
func (m *Machine) Trace() *TraceBuffer { return m.trace }

// TraceEvent emits a diagnostic event stamped with this core's clock. It
// is free (no simulated cost) and a no-op without an attached buffer, so
// subsystems can emit unconditionally.
func (c *Ctx) TraceEvent(kind, detail string) {
	b := c.m.trace
	if b == nil {
		return
	}
	b.add(TraceEvent{Cycle: c.clock, Core: c.id, Kind: kind, Detail: detail})
}

// Tracing reports whether a trace buffer is attached. Emitters whose detail
// string costs a format (and so an allocation) test it first, so an
// untraced run never builds a string TraceEvent would drop.
func (c *Ctx) Tracing() bool { return c.m.trace != nil }

// SetTxnTrace attaches a per-transaction JSONL event buffer to the machine
// (hastm-bench -trace); nil detaches it. Attach before Run.
func (m *Machine) SetTxnTrace(b *telemetry.TraceBuffer) { m.txnTrace = b }

// TxnTrace returns the attached transaction-event buffer, or nil.
func (m *Machine) TxnTrace() *telemetry.TraceBuffer { return m.txnTrace }

// EmitTxn records one transaction life-cycle event, stamping it with this
// core's id and clock. Free (no simulated cost) and a no-op without an
// attached buffer; the nil check is the entire disabled-path cost, so TM
// engines can emit unconditionally.
func (c *Ctx) EmitTxn(ev telemetry.TxnEvent) {
	b := c.m.txnTrace
	if b == nil {
		return
	}
	ev.Core = c.id
	ev.Cycle = c.clock
	b.Add(ev)
}
