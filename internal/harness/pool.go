package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hastm.dev/hastm/internal/telemetry"
)

// A Cell is one independent simulation run inside a figure's execution
// plan: a closure over a fully specified configuration plus the result
// slot it fills. Every cell builds its own private sim.Machine, so cells
// never share simulated state and can execute in any order — or
// concurrently — without changing their results.
type Cell struct {
	// Figure is the owning experiment id ("fig11", "ext-smt").
	Figure string
	// Label identifies the configuration ("stm/bst/4", "micro/hastm/80/50").
	Label string
	// HostNS is the host wall time the cell took, for -progress and -json.
	HostNS int64
	// Err is non-empty when the cell's run failed — a contained core
	// panic, a tripped progress watchdog, or any other panic out of the
	// cell function. A failed cell still counts as executed (its metrics
	// are whatever the run produced before failing, often zero), so
	// assembly proceeds and the caller decides how loudly to fail.
	Err string
	// Verdict is the cell's table row when it belongs to a verdict plan
	// (verdictCell); nil on figure cells.
	Verdict VerdictRow

	fn      func() RunMetrics
	metrics RunMetrics
	done    bool
}

// Metrics returns the cell's result. It panics if the cell has not been
// executed: assembly must only ever read executed cells, and a panic here
// turns a scheduling bug into a loud failure instead of a silent zero.
func (c *Cell) Metrics() RunMetrics {
	if !c.done {
		panic(fmt.Sprintf("harness: cell %s/%s read before execution", c.Figure, c.Label))
	}
	return c.metrics
}

// WallCycles is shorthand for Metrics().WallCycles.
func (c *Cell) WallCycles() uint64 { return c.Metrics().WallCycles }

func (c *Cell) execute() {
	start := time.Now()
	// Contain cell failures (the simulator already turns core panics and
	// watchdog trips into structured errors; must re-panics them)
	// so one bad cell fails its own slot instead of killing the whole
	// sweep's worker pool.
	func() {
		defer func() {
			if r := recover(); r != nil {
				c.Err = fmt.Sprint(r)
			}
		}()
		c.metrics = c.fn()
	}()
	c.HostNS = time.Since(start).Nanoseconds()
	c.done = true
}

// FailedCells returns every executed cell with a non-empty Err, in plan
// and declaration order — the exit-status signal for hastm-bench.
func FailedCells(plans []*Plan) []*Cell {
	var failed []*Cell
	for _, p := range plans {
		for _, c := range p.Cells {
			if c.done && c.Err != "" {
				failed = append(failed, c)
			}
		}
	}
	return failed
}

// A Plan is one figure decomposed into its independent cells plus a pure
// assembly step. Assemble reads only cell results (by the slots captured
// at declaration time), so the rendered report is bit-identical regardless
// of how the cells were scheduled.
type Plan struct {
	ID       string
	Cells    []*Cell
	Assemble func() *Report
}

func newPlan(id string) *Plan { return &Plan{ID: id} }

// cell declares one run. Cells execute in declaration order under the
// serial fallback (workers = 1), preserving the original figure-function
// behaviour exactly.
func (p *Plan) cell(label string, fn func() RunMetrics) *Cell {
	c := &Cell{Figure: p.ID, Label: label, fn: fn}
	p.Cells = append(p.Cells, c)
	return c
}

// VerdictRow is a cell's line in the table of a verdict suite (the
// faultstorm, the adversarial suite, the chaos storm): the column header the
// suite prints once, the cell's own row, and its failure ("" = passed).
type VerdictRow interface {
	Header() string
	Row() string
	Failure() string
}

// verdictPlan starts a sweep whose cells each yield a report of the suite's
// own kind (verdictCell) instead of contributing to a figure. Its Assemble
// produces no report.
func verdictPlan(id string) *Plan {
	p := newPlan(id)
	p.Assemble = func() *Report { return nil }
	return p
}

// verdictCell declares a cell of a verdict plan. The report run returns
// becomes the cell's Verdict and its failure the cell's Err, so a failed
// verdict is a failed cell. Until then the Verdict is a crashedRow, so a cell
// whose function panicked still has a row.
func verdictCell[R VerdictRow](p *Plan, label string, run func() (R, RunMetrics)) {
	var c *Cell
	c = p.cell(label, func() RunMetrics {
		rep, m := run()
		c.Verdict, c.Err = rep, rep.Failure()
		return m
	})
	c.Verdict = crashedRow[R]{c}
}

// crashedRow is the row of a verdict cell that produced no report of kind R:
// its label and whatever Cell.execute contained, under R's header.
type crashedRow[R VerdictRow] struct{ c *Cell }

func (crashedRow[R]) Header() string    { return (*new(R)).Header() }
func (r crashedRow[R]) Row() string     { return r.c.Label + "  " + verdictString(r.c.Err) }
func (r crashedRow[R]) Failure() string { return r.c.Err }

// structure declares a standard data-structure benchmark cell.
func (p *Plan) structure(scheme, workload string, cores int, o Options) *Cell {
	return p.cell(fmt.Sprintf("%s/%s/%d", scheme, workload, cores), func() RunMetrics {
		return runStructure(scheme, workload, cores, o)
	})
}

// micro declares a Fig 15 microbenchmark cell (store reuse held at 40, as in
// the paper; warm-up counters discarded).
func (p *Plan) micro(scheme string, loadPct, loadReuse int, o Options) *Cell {
	return p.cell(fmt.Sprintf("micro/%s/%d/%d", scheme, loadPct, loadReuse), func() RunMetrics {
		return must(runMicroKernel(scheme, loadPct, loadReuse, 40, warmStep, o))
	})
}

// microExt declares an extension microbenchmark cell with explicit store
// reuse, whose counters keep the warm-up.
func (p *Plan) microExt(scheme string, loadPct, loadReuse, storeReuse int, o Options) *Cell {
	return p.cell(fmt.Sprintf("micro/%s/%d/%d/s%d", scheme, loadPct, loadReuse, storeReuse), func() RunMetrics {
		return must(runMicroKernel(scheme, loadPct, loadReuse, storeReuse, warmKept, o))
	})
}

// cellRow is a named series of cells (one table row before normalisation).
type cellRow struct {
	name  string
	cells []*Cell
}

// ratioTable assembles a Table whose cell (i, j) is rows[i].cells[j]
// divided by base(j) — the normalised-execution-time shape every figure
// uses. base is called at assembly time, after all cells have executed.
func ratioTable(name, colHeader, unit string, cols []string, rows []cellRow, base func(col int) uint64) Table {
	tbl := Table{Name: name, ColHeader: colHeader, Unit: unit, Cols: cols}
	for _, r := range rows {
		row := Row{Name: r.name}
		for j, c := range r.cells {
			row.Cells = append(row.Cells, float64(c.Metrics().WallCycles)/float64(base(j)))
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl
}

// ExecConfig controls parallel cell execution.
type ExecConfig struct {
	// Workers is the worker-pool size; <= 0 means runtime.GOMAXPROCS(0).
	// 1 runs every cell in declaration order on the calling goroutine.
	Workers int
	// ProgressSync, when non-nil, receives one line per completed cell. It is
	// mutex-guarded, so workers finishing at the same host instant never tear
	// a line, and a caller that routes other output (e.g. -trace JSONL)
	// through the same writer can never interleave the two mid-line.
	ProgressSync *telemetry.SyncWriter
}

// workers returns the resolved pool size.
func (cfg ExecConfig) workers() int {
	if cfg.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return cfg.Workers
}

// Execute runs every cell of every plan — serially in declaration order
// when cfg.Workers is 1, otherwise on a shared worker pool — then
// assembles the reports in plan order. Because each cell owns a private
// machine and results are written back into the declared slots, the
// returned reports are bit-identical for every worker count.
func Execute(plans []*Plan, cfg ExecConfig) []*Report {
	var cells []*Cell
	for _, p := range plans {
		cells = append(cells, p.Cells...)
	}

	workers := cfg.workers()
	if workers > len(cells) {
		workers = len(cells)
	}
	pw := cfg.ProgressSync
	var completed atomic.Int64
	report := func(c *Cell) {
		if pw == nil {
			return
		}
		n := completed.Add(1)
		status := ""
		if c.Err != "" {
			status = "  FAILED"
		}
		pw.Printf("[%3d/%3d] %-16s %-28s %8.1fms  %d cycles%s\n",
			n, len(cells), c.Figure, c.Label, float64(c.HostNS)/1e6, c.metrics.WallCycles, status)
	}

	if workers <= 1 {
		for _, c := range cells {
			c.execute()
			report(c)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(cells) {
						return
					}
					cells[i].execute()
					report(cells[i])
				}
			}()
		}
		wg.Wait()
	}

	reports := make([]*Report, len(plans))
	for i, p := range plans {
		reports[i] = p.Assemble()
	}
	return reports
}

// WriteTxnTraces dumps every executed cell's per-transaction event trace as
// JSONL, cells in plan/declaration order, each event stamped with its
// "figure/label" cell id. Within one cell the simulator's one-op-at-a-time
// grant order makes the event sequence deterministic, so the full file is
// byte-identical for every worker count. Before anything is written, every
// cell that did not fail must pass the life-cycle check
// (telemetry.TraceBuffer.Check); the first violation is the error, naming
// its cell. Returns the number of events written and the number dropped to
// buffer caps.
func WriteTxnTraces(plans []*Plan, w *telemetry.SyncWriter) (written, dropped uint64, err error) {
	for _, p := range plans {
		for _, c := range p.Cells {
			if tb := c.Metrics().TxnTrace; tb != nil && c.Err == "" {
				if err := tb.Check(); err != nil {
					return 0, 0, fmt.Errorf("cell %s/%s: %w", c.Figure, c.Label, err)
				}
			}
		}
	}
	for _, p := range plans {
		for _, c := range p.Cells {
			tb := c.Metrics().TxnTrace
			if tb == nil {
				continue
			}
			if err := tb.WriteJSONL(w, c.Figure+"/"+c.Label); err != nil {
				return written, dropped, err
			}
			written += uint64(tb.Len())
			dropped += tb.Dropped()
		}
	}
	return written, dropped, nil
}
