package harness

import (
	"fmt"
	"strconv"

	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

// The native runner drives the host-goroutine TL2 backend through the same
// workload cells as the simulator figures, but measures real wall-clock
// throughput instead of simulated cycles. Nothing here is deterministic —
// host numbers belong on the same axis as HostMS, never next to WallCycles
// — so the native plan is its own figure ("native") rather than a scheme
// row inside the paper's figures.

// NativeThreadCounts is the host-goroutine sweep of the native throughput
// suite. Counts above the machine's core count oversubscribe, which is
// deliberate: commit-time lock conflicts under preemption are exactly what
// the contention policies must survive.
var NativeThreadCounts = []int{1, 2, 4, 8, 16, 32}

// RunOneNative runs one native-backend cell: populate the structure, warm
// up, then measure each of `threads` goroutines driving o.Ops operations
// (updatePct% updates). Unlike the simulator cells — which split o.Ops
// across cores so the science is core-count-invariant — every native
// goroutine runs the full o.Ops, because the subject here is throughput
// scaling and per-thread work must not shrink as the sweep widens.
func RunOneNative(workload string, threads int, o Options, updatePct int) (RunMetrics, error) {
	c, err := newNativeCell(nativeSpec{workload: workload, threads: threads, o: o, perThread: true})
	if err != nil {
		return RunMetrics{}, err
	}
	ds := c.structure()
	warmCfg := workloads.DriverConfig{Ops: o.warmupPerThread(threads), UpdatePercent: updatePct, Seed: o.Seed + 7777}
	cfg := workloads.DriverConfig{Ops: c.ops, UpdatePercent: updatePct, Seed: o.Seed}
	metrics, res := c.run(
		func(th tm.Thread, _ int) error { return workloads.RunThread(th, ds, warmCfg) },
		func(th tm.Thread, _ int) error { return workloads.RunThread(th, ds, cfg) })
	if err := res.verdict(nil); err != nil {
		return metrics, fmt.Errorf("native %s: %w", workload, err)
	}
	return metrics, nil
}

// NativePlan builds the native throughput figure: every standard workload
// swept over threadCounts, 20% updates as in the paper's structure cells.
// The assembled table reports committed transactions per second.
func NativePlan(o Options, threadCounts []int) *Plan {
	p := newPlan("native")
	var rows []cellRow
	for _, w := range Workloads() {
		row := cellRow{name: w}
		for _, n := range threadCounts {
			row.cells = append(row.cells, p.cell(fmt.Sprintf("native/%s/%d", w, n), func() RunMetrics {
				return must(RunOneNative(w, n, o, 20))
			}))
		}
		rows = append(rows, row)
	}
	cols := make([]string, len(threadCounts))
	for i, n := range threadCounts {
		cols[i] = strconv.Itoa(n)
	}
	p.Assemble = func() *Report {
		tbl := Table{Name: "throughput", ColHeader: "threads", Unit: "Mtxn/s", Cols: cols}
		for _, r := range rows {
			row := Row{Name: r.name}
			for _, c := range r.cells {
				row.Cells = append(row.Cells, c.Metrics().TxnsPerSec()/1e6)
			}
			tbl.Rows = append(tbl.Rows, row)
		}
		return &Report{
			ID:     "native",
			Title:  "Native TL2 backend host throughput",
			Notes:  "committed txns/sec on host goroutines and real memory; host-dependent, not comparable to simulated figures",
			Tables: []Table{tbl},
		}
	}
	return p
}

// TxnsPerSec returns the run's committed-transaction rate, or 0 when the
// run carries no host-side measured-phase timing (every simulator cell).
func (m RunMetrics) TxnsPerSec() float64 {
	if m.HostNS <= 0 || m.Stats == nil {
		return 0
	}
	return float64(m.Stats.Commits()) / (float64(m.HostNS) / 1e9)
}
