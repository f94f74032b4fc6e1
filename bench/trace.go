package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around the call (spans inside the program are a later change).
// Ops and the allocation counts are taken at the same boundary, so ratios
// are measured where the work happens.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root span
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"` // since the tracer started
	End      int64  `json:"end_ns"`
	Workload string `json:"workload,omitempty"`
	Cell     string `json:"cell,omitempty"`
	Rep      int    `json:"rep"`
	Ops      int64  `json:"ops"`
	Mallocs  uint64 `json:"mallocs,omitempty"`
	Bytes    uint64 `json:"alloc_bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the benchmark ends. A nil *tracer
// times the call and records nothing: that is the untraced run, so both
// runs take the same path through the benchmark and differ only by the
// append. Spans are opened and closed one at a time (the benchmark drives
// the program from one goroutine, or from a simulated core's goroutine
// while the driver goroutine is blocked in Machine.Run), so a stack gives
// the parent.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	// Identity stamped on every span opened while it is set.
	workload, cell string
	rep            int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, ops int64) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Ops: ops,
		Workload: t.workload, Cell: t.cell, Rep: t.rep,
		Start: time.Since(t.t0).Nanoseconds(),
	})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// do times f from outside and, when tracing, records the span. It returns
// the span id (-1 untraced) so the caller can attach counts to it.
func (t *tracer) do(name string, ops int64, f func()) (time.Duration, int) {
	if t == nil {
		start := time.Now()
		f()
		return time.Since(start), -1
	}
	id := t.begin(name, ops)
	f()
	t.end(id)
	return time.Duration(t.spans[id].dur()), id
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover. Children are clipped to the parent and
// overlapping children are counted once.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// perOp returns, for every span of the given name, its duration in
// nanoseconds per recorded operation.
func (t *tracer) perOp(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Ops > 0 {
			out = append(out, float64(s.dur())/float64(s.Ops))
		}
	}
	return out
}

// minPerOp is the min-of-repetitions estimator over the spans of one name.
func (t *tracer) minPerOp(name string) float64 { return minOf(t.perOp(name)) }

// layerRow is one line of the trace's per-name summary.
type layerRow struct {
	Name   string `json:"name"`
	Count  int    `json:"count"`
	Ops    int64  `json:"ops"`
	Total  int64  `json:"total_ns"`
	Self   int64  `json:"self_ns"`
	MinDur int64  `json:"min_ns"`
}

// summary folds the spans by name: how often each layer was entered, the
// work it was handed, and its total and self time.
func (t *tracer) summary() []layerRow {
	self := selfTimes(t.spans)
	byName := make(map[string]*layerRow)
	for _, s := range t.spans {
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name, MinDur: s.dur()}
			byName[s.Name] = r
		}
		r.Count++
		r.Ops += s.Ops
		r.Total += s.dur()
		r.Self += self[s.ID]
		r.MinDur = min(r.MinDur, s.dur())
	}
	rows := make([]layerRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// traceFile is the document written to <out>/trace.json.
type traceFile struct {
	Header  header             `json:"header"`
	Layers  []layerRow         `json:"layers"`
	Metrics map[string]measure `json:"per_layer"`
	Spans   []span             `json:"spans"`
}

func (t *tracer) write(dir string, h header, metrics map[string]measure) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, "trace.json")
	data, err := json.Marshal(traceFile{Header: h, Layers: t.summary(), Metrics: metrics, Spans: t.spans})
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}
