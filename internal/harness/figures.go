package harness

import (
	"fmt"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/workloads"
	"hastm.dev/hastm/internal/workloads/traces"
)

// Spec registers one reproducible figure as an execution plan: a set of
// independent simulation cells plus a pure assembly step (see pool.go).
type Spec struct {
	ID    string
	Title string
	Plan  func(Options) *Plan
}

// Run executes the spec's cells in declaration order on the calling
// goroutine — the serial reference behaviour.
func (s Spec) Run(o Options) *Report {
	return Execute([]*Plan{s.Plan(o)}, ExecConfig{Workers: 1})[0]
}

// All returns the experiment registry in paper order.
func All() []Spec {
	return []Spec{
		{"fig11", "STM vs lock scaling on TM workloads", planFig11},
		{"fig12", "STM execution time breakdown", planFig12},
		{"fig13", "Ratio of loads and cache reuse in workload critical sections", planFig13},
		{"fig15", "TM performance comparison (microbenchmark sweep)", planFig15},
		{"fig16", "Relative execution time for TM schemes (single thread)", planFig16},
		{"fig17", "Performance breakdown for HASTM", planFig17},
		{"fig18", "Multi-core scaling for BST", planFig18},
		{"fig19", "Multi-core scaling for Btree", planFig19},
		{"fig20", "Multi-core scaling for hash table", planFig20},
		{"fig21", "BST scaling under different TM schemes", planFig21},
		{"fig22", "Btree scaling under different TM schemes", planFig22},
	}
}

// ByID returns the spec for an experiment id (figures and extensions).
func ByID(id string) (Spec, bool) {
	for _, s := range All() {
		if s.ID == id {
			return s, true
		}
	}
	for _, s := range Extensions() {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// planFig11 declares Figure 11: execution time of the STM and coarse-lock
// versions of the three data structures, 1–16 processors, relative to the
// single-thread lock time.
func planFig11(o Options) *Plan {
	cores := []int{1, 2, 4, 8, 16}
	var cols []string
	for _, c := range cores {
		cols = append(cols, fmt.Sprint(c))
	}
	p := newPlan("fig11")
	type group struct {
		wl   string
		base *Cell
		rows []cellRow
	}
	var groups []group
	for _, wl := range Workloads() {
		g := group{wl: wl, base: p.structure(SchemeLock, wl, 1, o)}
		for _, scheme := range []string{SchemeLock, SchemeSTM} {
			r := cellRow{name: scheme}
			for _, c := range cores {
				r.cells = append(r.cells, p.structure(scheme, wl, c, o))
			}
			g.rows = append(g.rows, r)
		}
		groups = append(groups, g)
	}
	p.Assemble = func() *Report {
		rep := &Report{
			ID:    "fig11",
			Title: "STM (vs lock) on TM workloads, IBM-x445-style 16-way run",
			Notes: "execution time relative to single-thread lock time; total work fixed, split across processors",
		}
		for _, g := range groups {
			base := g.base.WallCycles()
			rep.Tables = append(rep.Tables, ratioTable(g.wl, "scheme \\ procs", "x of 1-proc lock time",
				cols, g.rows, func(int) uint64 { return base }))
		}
		return rep
	}
	return p
}

// planFig12 declares Figure 12: where single-thread STM time goes.
func planFig12(o Options) *Plan {
	p := newPlan("fig12")
	cells := make(map[string]*Cell)
	for _, wl := range Workloads() {
		cells[wl] = p.structure(SchemeSTM, wl, 1, o)
	}
	p.Assemble = func() *Report {
		rep := &Report{
			ID:    "fig12",
			Title: "STM execution time breakdown",
			Notes: "percent of total cycles per category, single thread",
		}
		cats := []telemetry.Category{telemetry.App, telemetry.TLS, telemetry.RdBar, telemetry.WrBar, telemetry.Validate, telemetry.Commit}
		tbl := Table{Name: "breakdown", ColHeader: "workload", Unit: "% of cycles"}
		for _, c := range cats {
			tbl.Cols = append(tbl.Cols, c.String())
		}
		for _, wl := range Workloads() {
			m := cells[wl].Metrics()
			total := float64(m.Stats.TotalCycles())
			row := Row{Name: wl}
			for _, c := range cats {
				row.Cells = append(row.Cells, 100*float64(m.Stats.CategoryCycles(c))/total)
			}
			tbl.Rows = append(tbl.Rows, row)
		}
		rep.Tables = append(rep.Tables, tbl)
		return rep
	}
	return p
}

// planFig13 declares Figure 13: the workload-analysis chart, and beside it
// the same measurement of the transactional data structures that backs
// §7.3's reuse claims. The trace analysis is not a machine simulation, so
// the plan has no cells and the work happens at assembly time.
func planFig13(o Options) *Plan {
	p := newPlan("fig13")
	p.Assemble = func() *Report {
		rep := &Report{
			ID:    "fig13",
			Title: "Ratio of loads and cache reuse (synthetic traces per the documented substitution)",
			Notes: "measured from generated critical-section traces; reuse = prior same-kind access to the line in the same section",
		}
		table := func(name, colHeader string, results []traces.Result) {
			tbl := Table{Name: name, ColHeader: colHeader, Cols: []string{"% loads", "load reuse %", "store reuse %"}, Unit: "percent"}
			for _, r := range results {
				tbl.Rows = append(tbl.Rows, Row{
					Name:  r.Name,
					Cells: []float64{100 * r.LoadFraction, 100 * r.LoadReuse, 100 * r.StoreReuse},
				})
			}
			rep.Tables = append(rep.Tables, tbl)
		}
		table("workload analysis", "workload", traces.AnalyzeAll(400, o.Seed))
		// 1000 single-threaded operations per structure, the three laid out
		// in one memory at fixed sizes: a measure of shape, not of cells.
		m := mem.New()
		measure := func(ds workloads.DataStructure) traces.Result {
			ds.Populate(m, workloads.NewRand(o.Seed))
			return traces.MeasureStructureReuse(ds, m, 1000, StructureUpdatePct, o.Seed)
		}
		table("transactional data structures (§7.3)", "structure", []traces.Result{
			measure(workloads.NewHashtable(m, 1024)), measure(workloads.NewBST(m, 512)), measure(workloads.NewBTree(m, 512)),
		})
		return rep
	}
	return p
}

// planFig15 declares Figure 15: the microbenchmark sweep over load fraction
// (60–90%) and cache reuse (40–60%), for cautious HASTM, full HASTM and
// best-case HyTM, normalised to the STM.
func planFig15(o Options) *Plan {
	loadFracs := []int{60, 70, 80, 90}
	reuses := []int{40, 50, 60}
	schemes := []struct{ label, scheme string }{
		{"Cautious", SchemeCautious},
		{"HASTM", SchemeHASTM},
		{"Hybrid", SchemeHyTM},
	}
	var cols []string
	for _, lf := range loadFracs {
		cols = append(cols, fmt.Sprintf("%d%%", lf))
	}
	p := newPlan("fig15")
	type group struct {
		reuse int
		base  []*Cell // one STM baseline per load fraction
		rows  []cellRow
	}
	var groups []group
	for _, reuse := range reuses {
		g := group{reuse: reuse}
		for _, lf := range loadFracs {
			g.base = append(g.base, p.micro(SchemeSTM, lf, reuse, o))
		}
		for _, s := range schemes {
			r := cellRow{name: s.label}
			for _, lf := range loadFracs {
				r.cells = append(r.cells, p.micro(s.scheme, lf, reuse, o))
			}
			g.rows = append(g.rows, r)
		}
		groups = append(groups, g)
	}
	p.Assemble = func() *Report {
		rep := &Report{
			ID:    "fig15",
			Title: "TM performance comparison",
			Notes: "relative execution time, STM = 1.0; store reuse fixed at 40%",
		}
		for _, g := range groups {
			base := g.base
			rep.Tables = append(rep.Tables, ratioTable(
				fmt.Sprintf("%d%% cache reuse", g.reuse), "scheme \\ load%", "x of STM time",
				cols, g.rows, func(j int) uint64 { return base[j].WallCycles() }))
		}
		return rep
	}
	return p
}

// abortCauseTable summarises why transactions aborted, per scheme row:
// one column per cause of the taxonomy plus a total that the causes sum
// to (checked by conformance tests). Counts are summed over each row's
// cells, so a row aggregates a scheme across the plan's workloads or core
// counts.
func abortCauseTable(rows []cellRow) Table {
	tbl := Table{Name: "abort causes", ColHeader: "scheme \\ cause", Unit: "aborts (sum over row's cells)"}
	causes := telemetry.AbortCauses()
	for _, cause := range causes {
		tbl.Cols = append(tbl.Cols, cause.String())
	}
	tbl.Cols = append(tbl.Cols, "total")
	for _, r := range rows {
		row := Row{Name: r.name}
		per := make([]uint64, len(causes))
		var total uint64
		for _, c := range r.cells {
			st := c.Metrics().Stats
			if st == nil {
				continue
			}
			for i, cause := range causes {
				per[i] += st.Aborts(cause)
			}
			total += st.TotalAborts()
		}
		for _, v := range per {
			row.Cells = append(row.Cells, float64(v))
		}
		row.Cells = append(row.Cells, float64(total))
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl
}

// planSingleThread covers Figures 16 and 17: one table of schemes ×
// workloads, single thread, normalised per workload to sequential time.
func planSingleThread(id, title, notes, tableName string, schemes []string, o Options) *Plan {
	p := newPlan(id)
	base := make(map[string]*Cell)
	for _, wl := range Workloads() {
		base[wl] = p.structure(SchemeSeq, wl, 1, o)
	}
	var rows []cellRow
	for _, s := range schemes {
		r := cellRow{name: s}
		for _, wl := range Workloads() {
			r.cells = append(r.cells, p.structure(s, wl, 1, o))
		}
		rows = append(rows, r)
	}
	p.Assemble = func() *Report {
		rep := &Report{ID: id, Title: title, Notes: notes}
		wls := Workloads()
		rep.Tables = append(rep.Tables, ratioTable(tableName, "scheme \\ workload", "x of sequential time",
			wls, rows, func(j int) uint64 { return base[wls[j]].WallCycles() }))
		rep.Tables = append(rep.Tables, abortCauseTable(rows))
		return rep
	}
	return p
}

// planFig16 declares Figure 16: single-thread execution time of every TM
// scheme relative to sequential execution.
func planFig16(o Options) *Plan {
	return planSingleThread("fig16", "Relative execution time for TM schemes",
		"single thread; sequential execution = 1.0 (an ideal unbounded HTM would be 1.0)",
		"single-thread", []string{SchemeHASTM, SchemeHyTM, SchemeSTM, SchemeLock}, o)
}

// planFig17 declares Figure 17: the HASTM ablation — full HASTM, cautious
// only (no read-log elimination), no-reuse (no barrier filtering) and the
// base STM, relative to sequential execution.
func planFig17(o Options) *Plan {
	return planSingleThread("fig17", "Performance breakdown for HASTM",
		"single thread; sequential = 1.0; Cautious = no read-log elimination, NoReuse = no barrier filtering",
		"ablation", []string{SchemeHASTM, SchemeCautious, SchemeNoReuse, SchemeSTM}, o)
}

// planMulticore covers Figures 18–22: fixed total work split over 1/2/4
// cores, times relative to the single-core lock run.
func planMulticore(id, title, workload string, schemes []string, o Options) *Plan {
	cores := []int{1, 2, 4}
	var cols []string
	for _, c := range cores {
		cols = append(cols, fmt.Sprint(c))
	}
	p := newPlan(id)
	base := p.structure(SchemeLock, workload, 1, o)
	var rows []cellRow
	for _, s := range schemes {
		r := cellRow{name: s}
		for _, c := range cores {
			r.cells = append(r.cells, p.structure(s, workload, c, o))
		}
		rows = append(rows, r)
	}
	p.Assemble = func() *Report {
		rep := &Report{
			ID:    id,
			Title: title,
			Notes: "execution time relative to single-core lock time; fixed total work",
		}
		b := base.WallCycles()
		rep.Tables = append(rep.Tables, ratioTable(workload, "scheme \\ cores", "x of 1-core lock time",
			cols, rows, func(int) uint64 { return b }))
		rep.Tables = append(rep.Tables, abortCauseTable(rows))
		return rep
	}
	return p
}

func planFig18(o Options) *Plan {
	return planMulticore("fig18", "Multi-core scaling for BST", WorkloadBST,
		[]string{SchemeHASTM, SchemeSTM, SchemeLock}, o)
}

func planFig19(o Options) *Plan {
	return planMulticore("fig19", "Multi-core scaling for Btree", WorkloadBTree,
		[]string{SchemeHASTM, SchemeSTM, SchemeLock}, o)
}

func planFig20(o Options) *Plan {
	return planMulticore("fig20", "Multi-core scaling for hash table", WorkloadHash,
		[]string{SchemeHASTM, SchemeSTM, SchemeLock}, o)
}

// planFig21 declares Figure 21, the spurious-abort study: BST under HASTM,
// the naive always-aggressive strawman and STM (Figure 22: the same on the
// B-tree).
func planFig21(o Options) *Plan {
	return planMulticore("fig21", "BST scaling (different TM schemes)", WorkloadBST,
		[]string{SchemeHASTM, SchemeNaive, SchemeSTM}, o)
}

func planFig22(o Options) *Plan {
	return planMulticore("fig22", "Btree scaling (different TM schemes)", WorkloadBTree,
		[]string{SchemeHASTM, SchemeNaive, SchemeSTM}, o)
}
