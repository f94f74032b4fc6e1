package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMinSumEstimator(t *testing.T) {
	ns := func(v ...float64) series { return series{ns: v} }
	res := []cellResult{
		{full: ns(30, 10, 20), setup: ns(3, 2, 1)},
		{full: ns(5, 7, 6), setup: ns(4, 4, 9)},
		{cell: cell{exactOnly: true}, full: ns(1000, 1000)},
	}
	tm := timed(res)
	if len(tm) != 2 {
		t.Fatalf("timed kept %d cells, want 2 (exact-only cells stay out of the sums)", len(tm))
	}
	if got := minSum(tm, fullNS); got != 15 {
		t.Errorf("minSum(full) = %v, want 10+5", got)
	}
	if got := minSum(tm, setupNS); got != 5 {
		t.Errorf("minSum(setup) = %v, want 1+4", got)
	}
	if got := roundTotals(tm, fullNS); !reflect.DeepEqual(got, []float64{35, 17, 26}) {
		t.Errorf("roundTotals = %v", got)
	}
}

func TestExactQuantiles(t *testing.T) {
	// Values of Python's statistics.quantiles(v, n=4).
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4}, 1.5, 3, 4.5}, // two values: Python extrapolates, so does this
		{[]float64{5, 1, 3}, 1, 3, 5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := median([]float64{9, 1, 5}); m != 5 {
		t.Errorf("median = %v, want 5", m)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", s)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(minOf(nil)) {
		t.Error("empty input must read as NaN, never as 0")
	}
	if w := worseBy(100, 90, "higher"); !near(w, 0.1) {
		t.Errorf("worseBy higher = %v", w)
	}
	if w := worseBy(100, 90, "lower"); !near(w, -0.1) {
		t.Errorf("worseBy lower = %v", w)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "cell", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "populate", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "run", Start: 25, End: 60},     // overlaps populate by 5
		{ID: 3, Parent: 0, Name: "verify", Start: 90, End: 120}, // runs past the parent
		{ID: 4, Parent: 2, Name: "inner", Start: 30, End: 40},
		{ID: 5, Parent: -1, Name: "alone", Start: 200, End: 230},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		0: 100 - (20 + 30 + 10), // children cover [10,60) and [90,100)
		1: 20, 2: 35 - 10, 3: 30, 4: 10, 5: 30,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}

	tr := newTracer()
	outer := tr.begin("outer", 4)
	tr.do("inner", 2, func() {})
	tr.end(outer)
	if tr.spans[1].Parent != outer || tr.spans[0].Parent != -1 {
		t.Errorf("parents = %d, %d", tr.spans[0].Parent, tr.spans[1].Parent)
	}
	if got := tr.perOp("outer"); len(got) != 1 || got[0] != float64(tr.spans[0].dur())/4 {
		t.Errorf("perOp = %v", got)
	}
	var nilTracer *tracer
	ran := false
	if _, id := nilTracer.do("x", 1, func() { ran = true }); id != -1 || !ran {
		t.Error("a nil tracer must run the call and record nothing")
	}
}

func TestMaxRateInSLO(t *testing.T) {
	ok := func(gap, p99 uint64) rung { return rung{gap: gap, p99: p99, offered: 100} }
	ladder := []rung{ok(1024, 1279), ok(640, 1407), ok(512, 4096), ok(400, 4097), ok(320, 900)}
	rate, found := maxRateInSLO(ladder, 4096)
	if !found || rate != nominalRate(512) {
		t.Errorf("rate = %v, %v; want the 512-cycle rung (p99 at the limit passes, the rung behind a failing one does not count)", rate, found)
	}
	shed := []rung{ok(1024, 100), {gap: 640, p99: 100, shed: 1, offered: 100}}
	if rate, _ := maxRateInSLO(shed, 4096); rate != nominalRate(1024) {
		t.Errorf("rate = %v; a rung that sheds does not qualify", rate)
	}
	if rate, found := maxRateInSLO([]rung{ok(1024, 5000)}, 4096); found || rate != 0 {
		t.Errorf("no rung qualifies: got %v, %v", rate, found)
	}
	if rate, found := maxRateInSLO(nil, 4096); found || rate != 0 {
		t.Errorf("empty ladder: got %v, %v", rate, found)
	}
}

func TestFailureAccounting(t *testing.T) {
	boom := errors.New("boom")
	reps := []repStatus{
		{ops: 100, committed: 100},
		{ops: 100, committed: 90, shed: 10},
		{ops: 100, committed: 100, err: boom},
	}
	if a, f, s := account(reps, nil, false); a != 300 || f != 110 || s != 0 {
		t.Errorf("closed cell: attempted %d failed %d shed %d, want 300 110 0 (shed counts as failed)", a, f, s)
	}
	if a, f, s := account(reps, nil, true); a != 300 || f != 100 || s != 10 {
		t.Errorf("overloaded rung: attempted %d failed %d shed %d, want 300 100 10", a, f, s)
	}
	if _, f, _ := account(reps, boom, true); f != 300 {
		t.Errorf("failed verification: failed %d, want all 300", f)
	}
}

// TestServiceTimedCellsRefuseNothing holds the rule that only the load ladder
// may shed. At this seed the 512-cycle rung sheds a quarter of its requests
// under the default admission control, which failed 1707 operations of a
// checked run while that rung was still a timed cell.
func TestServiceTimedCellsRefuseNothing(t *testing.T) {
	const seed = 379932129
	w, _ := findWorkload("service-open")
	for _, c := range w.cells(seed, fullSizes) {
		if c.mayShed != strings.HasSuffix(c.name, "/ladder") || (c.mayShed && !c.exactOnly) {
			t.Errorf("%s: mayShed %t exactOnly %t; the ladder cells, and only they, may shed and are never timed", c.name, c.mayShed, c.exactOnly)
		}
		if c.gap != 512 || c.ops != fullSizes.rungReqs {
			continue
		}
		m, err := c.call(c.ops)
		st := check(c.ops, m, err)
		if st.err != nil {
			t.Fatalf("%s: %v", c.name, st.err)
		}
		_, failed, shed := account([]repStatus{st}, nil, c.mayShed)
		if failed != 0 || (shed > 0) != c.mayShed {
			t.Errorf("%s: %d failed, %d shed; want no failure, and shedding on the ladder cell only", c.name, failed, shed)
		}
	}
}

func TestCompareSets(t *testing.T) {
	tps := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	a := []float64{100, 101, 102, 103, 104, 100, 101, 102, 103, 104}
	if v := compareSets(tps, a, a); !v.ok || v.verdict != "ok, steady" {
		t.Errorf("identical sets: %+v", v)
	}
	worse := make([]float64, len(a))
	for i, x := range a {
		worse[i] = x * 0.85
	}
	if v := compareSets(tps, a, worse); v.ok {
		t.Errorf("a second set 15%% lower must fail a 10%% bound: %+v", v)
	}
	if v := compareSets(tps, worse, a); !v.ok {
		t.Errorf("a better second set passes: %+v", v)
	}
	wide := []float64{80, 90, 100, 110, 120, 80, 90, 100, 110, 120}
	if v := compareSets(tps, wide, wide); v.ok {
		t.Errorf("a 30%% spread must fail a 10%% bound: %+v", v)
	}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.10}
	if v := compareSets(setup, wide, wide); !v.ok {
		t.Errorf("setup_s is held to its medians only: %+v", v)
	}
	if v := compareSets(tps, nil, a); v.ok {
		t.Errorf("a set without runs must fail: %+v", v)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	in := result{Correct: true, Attempted: 12345, Failed: 0, Metrics: map[string]measure{
		"setup_s":   {Value: 0.046729898, Unit: "s"},
		"ops_per_s": {Value: 117169.08314369686, Unit: "1/s"},
	}}
	line, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := lastLine(append([]byte("a table\nmore table\n"), append(line, '\n')...))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
		t.Errorf("the contract line has exactly correct, attempted, failed, metrics; got %s", line)
	}
	if _, err := lastLine([]byte("not json\n")); err == nil {
		t.Error("a last line that is not a result must be an error")
	}
}

func TestGuards(t *testing.T) {
	two := cell{name: "two", workers: 2, threads: 2, ops: 2}
	if err := guardWorkers([]cell{two}, 1); err == nil {
		t.Error("2 workers on 1 CPU must be refused")
	}
	if err := guardWorkers([]cell{two}, 2); err != nil {
		t.Error(err)
	}
	big := cell{name: "big", workers: 1, threads: 1, native: true, ops: maxNativeOps + 1}
	if err := guardWorkers([]cell{big}, 2); err == nil {
		t.Error("a native cell past the arena's capacity must be refused")
	}
	for _, w := range workloadTable {
		if err := guardWorkers(w.cells(1, fullSizes), maxWorkers); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesGlossary holds BENCHMARK.json and the metric
// tables in this package together, so neither can drift.
func TestBenchmarkJSONMatchesGlossary(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json is not beside this directory:", err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, -seconds defaults to %v", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloadTable) {
		t.Fatalf("%d workloads in the file, %d in the table", len(f.Workloads), len(workloadTable))
	}
	for i, w := range workloadTable {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %q / %q, table has %q / %q", i, f.Workloads[i].Name, f.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the file, %d in the table", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		g := f.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end %d: file has %+v, table has %+v", i, g, d)
		}
	}
	if len(f.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in the file, %d in the table (limit 128)", len(f.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		g := f.PerLayer[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer %d: file has %+v, table has %s %s %s", i, g, d.Name, d.Unit, d.Better)
		}
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("per-layer %s: duplicate or over the name/unit limits", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestQuickSmoke runs every workload and the whole ladder at smoke size:
// the end-to-end run of all five workloads, then a traced run, and checks
// that every named metric comes out and nothing fails.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var out bytes.Buffer
	cfg := config{seed: 1, seconds: 1, quick: true, json: true, outDir: t.TempDir()}
	if code := run(cfg, &out); code != 0 {
		t.Fatalf("end-to-end run exited %d:\n%s", code, out.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out.String())
	}
	if len(rep.Workloads) != len(workloadTable) {
		t.Fatalf("%d workloads reported, want %d", len(rep.Workloads), len(workloadTable))
	}
	for _, w := range rep.Workloads {
		if w.Failed != 0 || w.Attempted == 0 || w.Reps != 2 {
			t.Errorf("%s: attempted %d failed %d reps %d; notes %v", w.Name, w.Attempted, w.Failed, w.Reps, w.Notes)
		}
		for _, d := range endToEnd {
			if m := w.Metrics[d.Name]; !(m.Value > 0) || m.Unit != d.Unit {
				t.Errorf("%s: %s = %+v", w.Name, d.Name, m)
			}
		}
		for _, e := range exactMetrics {
			_, has := w.Exact[e.Name]
			want := false
			for _, n := range e.Workloads {
				want = want || n == w.Name
			}
			if has != want {
				t.Errorf("%s: exact metric %s present %t, want %t", w.Name, e.Name, has, want)
			}
		}
	}

	out.Reset()
	cfg.json, cfg.trace, cfg.workload = false, true, "native-write"
	if code := run(cfg, &out); code != 0 {
		t.Fatalf("traced run exited %d:\n%s", code, out.String())
	}
	res, err := lastLine(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("traced run: %+v", res)
	}
	for _, d := range perLayer {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) {
			t.Errorf("traced run: per-layer metric %s = %+v (present %t)", d.Name, m, ok)
		}
		if !strings.Contains(out.String(), d.Name) {
			t.Errorf("per-layer table does not print %s", d.Name)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("traced run printed %d metrics, want exactly the %d per-layer ones", len(res.Metrics), len(perLayer))
	}
	var tf traceFile
	data, err := os.ReadFile(filepath.Join(cfg.outDir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) == 0 || len(tf.Layers) == 0 {
		t.Fatalf("trace.json: %v, %d spans, %d layers", err, len(tf.Spans), len(tf.Layers))
	}
	children := 0
	for _, s := range tf.Spans {
		if s.Parent >= 0 && tf.Spans[s.Parent].Name == "service.native_cell" {
			children++
		}
	}
	if children == 0 {
		t.Error("the composed native service cell has no child spans")
	}
}
