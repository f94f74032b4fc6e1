package main

import (
	"fmt"
	"runtime"
	"time"

	"hastm.dev/hastm/internal/harness"
)

// series holds the timed calls of one cell variant, one entry per
// repetition: host nanoseconds, heap allocations, bytes allocated.
type series struct {
	ns, mallocs, bytes []float64
}

func (s *series) add(ns, mallocs, bytes float64) {
	s.ns = append(s.ns, ns)
	s.mallocs = append(s.mallocs, mallocs)
	s.bytes = append(s.bytes, bytes)
}

// repStatus is what one repetition of a cell's call came back with.
type repStatus struct {
	ops       int    // operations the call attempted
	committed uint64 // operations that committed
	shed      uint64 // requests admission control refused
	err       error  // returned error, contained fault, or a failed check
}

// cellResult collects a cell's repetitions.
type cellResult struct {
	cell      cell
	full      series // the cell
	setup     series // its set-up variant
	reps      []repStatus
	first     harness.RunMetrics // repetition 0, the source of simulated statistics
	sig       string
	committed uint64 // per call; asserted equal in every repetition
	work      uint64 // units of work per call: granted operations (simulator) or commits (native)
	verifyErr error
	notes     []string // first few failure messages, for the report
}

func (r *cellResult) note(format string, args ...any) {
	if len(r.notes) < 3 {
		r.notes = append(r.notes, r.cell.name+": "+fmt.Sprintf(format, args...))
	}
}

// record keeps one call's status and, so that no failed operation goes
// unexplained in the report, a note of why it failed.
func (r *cellResult) record(what string, st repStatus) {
	switch lost := uint64(st.ops) - st.committed; {
	case st.err != nil:
		r.note("%s: %v", what, st.err)
	case r.cell.mayShed && lost != st.shed, !r.cell.mayShed && lost != 0:
		r.note("%s: %d of %d operations did not commit (%d shed)", what, lost, st.ops, st.shed)
	}
	r.reps = append(r.reps, st)
}

// account turns a cell's repetitions into attempted and failed operation
// counts. A repetition with an error fails all its operations; otherwise
// what did not commit failed, except requests shed on a rung that is
// overloaded on purpose, which are returned separately. A failed
// verification fails every operation of the cell.
func account(reps []repStatus, verifyErr error, mayShed bool) (attempted, failed, shed uint64) {
	for _, r := range reps {
		attempted += uint64(r.ops)
		switch {
		case r.err != nil || verifyErr != nil:
			failed += uint64(r.ops)
		case mayShed:
			shed += r.shed
			failed += uint64(r.ops) - r.committed - r.shed
		default:
			failed += uint64(r.ops) - r.committed
		}
	}
	return attempted, failed, shed
}

// timedCall runs one call of a cell from outside and appends it to into:
// collect garbage and read the allocator's counters outside the timed
// region, time the call, read the counters again.
func timedCall(tr *tracer, name string, c cell, n int, into *series) (harness.RunMetrics, error) {
	var before, after runtime.MemStats
	var m harness.RunMetrics
	var err error
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, id := tr.do(name, int64(n), func() { m, err = c.call(n) })
	runtime.ReadMemStats(&after)
	mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	into.add(float64(d.Nanoseconds()), float64(mallocs), float64(bytes))
	if id >= 0 {
		tr.spans[id].Mallocs, tr.spans[id].Bytes = mallocs, bytes
	}
	return m, err
}

// check holds one call's output against what the cell must produce; err is
// what the call itself returned.
func check(n int, m harness.RunMetrics, err error) repStatus {
	st := repStatus{ops: n, err: err}
	if m.Stats == nil {
		if err == nil {
			st.err = fmt.Errorf("no statistics returned")
		}
		return st
	}
	st.committed = m.Stats.Commits()
	if err != nil {
		return st
	}
	if s := m.Service; s != nil {
		st.shed = s.Shed
		if s.Offered != uint64(n) || s.Committed+s.Shed != s.Offered || s.Committed != st.committed {
			st.err = fmt.Errorf("service accounting: offered %d committed %d shed %d commits %d, want %d offered",
				s.Offered, s.Committed, s.Shed, st.committed, n)
		}
	} else if st.committed != uint64(n) {
		st.err = fmt.Errorf("committed %d of %d ops", st.committed, n)
	}
	return st
}

// runRep runs one repetition of a cell: its set-up variant, then the cell.
func runRep(tr *tracer, r *cellResult, rep int) {
	c := r.cell
	if tr != nil {
		tr.cell, tr.rep = c.name, rep
	}
	if !c.exactOnly {
		m, err := timedCall(tr, "setup:"+c.name, c, c.setupOps, &r.setup)
		r.record(fmt.Sprintf("set-up rep %d", rep), check(c.setupOps, m, err))
	}
	m, err := timedCall(tr, "cell:"+c.name, c, c.ops, &r.full)
	st := check(c.ops, m, err)
	if rep == 0 {
		r.first, r.committed, r.work = m, st.committed, st.committed
		if !c.native {
			// Simulated statistics are read from repetition 0 and must be
			// byte-equal in every other one; the signature covers the grant
			// count, so the work repeats too.
			r.sig, r.work = signature(m), m.Sched.Grants
		}
	} else if st.err == nil {
		switch {
		case !c.native && signature(m) != r.sig:
			st.err = fmt.Errorf("simulated statistics differ from repetition 0")
		case st.committed != r.committed:
			st.err = fmt.Errorf("committed %d, repetition 0 committed %d", st.committed, r.committed)
		}
	}
	r.record(fmt.Sprintf("rep %d", rep), st)
}

// rounds calls round(0), round(1), ... until the budget is spent and at
// least three rounds are done — stopping before a round that would overrun
// it — or exactly fixed times when fixed is positive.
func rounds(budget time.Duration, fixed int, round func(i int)) {
	const minRounds = 3
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if fixed > 0 {
			if i == fixed {
				return
			}
		} else if i >= minRounds && time.Since(start)+last > budget {
			return
		}
		t := time.Now()
		round(i)
		last = time.Since(t)
	}
}

// measureCells verifies every cell once, then repeats all of them
// round-robin — so every cell's repetitions are spread over the whole run
// and a disturbed second costs each cell one sample, not one cell all of
// them — for the budget, or for exactly fixedReps rounds when positive.
func measureCells(tr *tracer, wl string, cells []cell, budget time.Duration, fixedReps int) []cellResult {
	runtime.GOMAXPROCS(procsFor(cells))
	if tr != nil {
		tr.workload = wl
		defer func() { tr.workload, tr.cell, tr.rep = "", "", 0 }()
	}
	res := make([]cellResult, len(cells))
	for i, c := range cells {
		res[i].cell = c
		if c.verify != nil {
			if tr != nil {
				tr.cell = c.name
			}
			tr.do("verify:"+c.name, int64(c.ops), func() { res[i].verifyErr = c.verify() })
			if err := res[i].verifyErr; err != nil {
				res[i].note("verify: %v", err)
			}
		}
	}
	rounds(budget, fixedReps, func(rep int) {
		for i := range res {
			if !res[i].cell.exactOnly || rep < 2 {
				runRep(tr, &res[i], rep)
			}
		}
	})
	return res
}

// procsFor is the GOMAXPROCS a set of cells is measured at: as many
// processors as its busiest cell has goroutines computing at once.
func procsFor(cells []cell) int {
	p := 1
	for _, c := range cells {
		p = max(p, c.workers)
	}
	return p
}

// timed returns the results of the cells that enter the timed sums.
func timed(res []cellResult) []cellResult {
	var out []cellResult
	for _, r := range res {
		if !r.cell.exactOnly {
			out = append(out, r)
		}
	}
	return out
}

func fullNS(r *cellResult) []float64  { return r.full.ns }
func setupNS(r *cellResult) []float64 { return r.setup.ns }

// minSum is the workload time: the sum over cells of the minimum over
// repetitions, in nanoseconds.
func minSum(res []cellResult, pick func(*cellResult) []float64) float64 {
	var t float64
	for i := range res {
		t += minOf(pick(&res[i]))
	}
	return t
}

// roundTotals returns, per repetition, the summed time of all cells: the
// series whose median and inter-quartile range are printed beside the
// min-sum figure.
func roundTotals(res []cellResult, pick func(*cellResult) []float64) []float64 {
	if len(res) == 0 {
		return nil
	}
	n := len(pick(&res[0]))
	for i := range res {
		n = min(n, len(pick(&res[i])))
	}
	totals := make([]float64, n)
	for i := range res {
		for r, ns := range pick(&res[i])[:n] {
			totals[r] += ns
		}
	}
	return totals
}

// workloadReport is everything one workload's run produced.
type workloadReport struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Cells     int                `json:"cells"`
	Reps      int                `json:"reps"`
	Procs     int                `json:"gomaxprocs"`
	Attempted uint64             `json:"ops_attempted"`
	Failed    uint64             `json:"ops_failed"`
	Shed      uint64             `json:"ops_shed"`
	Metrics   map[string]measure `json:"metrics"`       // the gated end-to-end metrics
	Exact     map[string]measure `json:"exact"`         // simulated-clock results of this workload
	Info      map[string]measure `json:"informational"` // *_median and *_iqr, never gated
	Notes     []string           `json:"notes,omitempty"`
	PerCell   []cellRow          `json:"per_cell"`

	results []cellResult
}

// cellRow is one cell's line in the -json report: where a workload's time
// goes, cell by cell.
type cellRow struct {
	Name      string  `json:"name"`
	Reps      int     `json:"reps"`
	Committed uint64  `json:"committed"`
	MinNS     float64 `json:"min_ns"`
	MedianNS  float64 `json:"median_ns"`
	SetupNS   float64 `json:"setup_min_ns"`
	Timed     bool    `json:"timed"`
}

// summarize folds a workload's cell results into its report.
func summarize(w workload, res []cellResult) *workloadReport {
	rep := &workloadReport{
		Name: w.Name, Why: w.Why, Cells: len(res), Procs: runtime.GOMAXPROCS(0), results: res,
		Metrics: map[string]measure{}, Exact: map[string]measure{}, Info: map[string]measure{},
	}
	for i := range res {
		r := &res[i]
		a, f, s := account(r.reps, r.verifyErr, r.cell.mayShed)
		rep.Attempted += a
		rep.Failed += f
		rep.Shed += s
		rep.Notes = append(rep.Notes, r.notes...)
		row := cellRow{Name: r.cell.name, Reps: len(r.full.ns), Committed: r.committed, Timed: !r.cell.exactOnly}
		if len(r.full.ns) > 0 {
			row.MinNS, row.MedianNS = minOf(r.full.ns), median(r.full.ns)
		}
		if len(r.setup.ns) > 0 {
			row.SetupNS = minOf(r.setup.ns)
		}
		rep.PerCell = append(rep.PerCell, row)
	}
	tm := timed(res)
	if len(tm) == 0 {
		return rep
	}
	rep.Reps = len(tm[0].full.ns)
	var commits, work, mallocs, bytes float64
	for i := range tm {
		commits += float64(tm[i].committed)
		work += float64(tm[i].work)
		mallocs += median(tm[i].full.mallocs)
		bytes += median(tm[i].full.bytes)
	}
	set := func(into map[string]measure, name string, v float64) {
		d, _ := findDef(name)
		into[name] = measure{Value: v, Unit: d.Unit}
	}
	set(rep.Metrics, "setup_s", minSum(tm, setupNS)/1e9)
	set(rep.Metrics, "ops_per_s", work/(minSum(tm, fullNS)/1e9))
	set(rep.Metrics, "host_allocs_per_txn", mallocs/commits)
	set(rep.Metrics, "host_alloc_bytes_per_txn", bytes/commits)

	setupRounds := roundTotals(tm, setupNS)
	rep.Info["setup_s_median"] = measure{median(setupRounds) / 1e9, "s"}
	rep.Info["setup_s_iqr"] = measure{iqr(setupRounds) / 1e9, "s"}
	ops := roundTotals(tm, fullNS)
	for i, t := range ops {
		ops[i] = work / (t / 1e9)
	}
	rep.Info["ops_per_s_median"] = measure{median(ops), "1/s"}
	rep.Info["ops_per_s_iqr"] = measure{iqr(ops), "1/s"}
	rep.Info["txns_per_s"] = measure{commits / (minSum(tm, fullNS) / 1e9), "1/s"}

	for name, v := range exactOf(w.Name, res) {
		set(rep.Exact, name, v)
	}
	return rep
}
