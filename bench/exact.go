package main

import "fmt"

// rung is one step of the open-loop load ladder as the simulated clock
// saw it.
type rung struct {
	gap     uint64 // mean per-core inter-arrival gap, cycles
	p99     uint64 // sojourn p99, cycles
	shed    uint64
	offered uint64
	goodput float64 // committed requests per million cycles
}

// nominalRate is the offered load a gap stands for, in requests per million
// cycles over all cores.
func nominalRate(gap uint64) float64 { return float64(serviceCores) * 1e6 / float64(gap) }

// maxRateInSLO walks the ladder from the lightest rung up and returns the
// nominal rate of the last rung that keeps p99 within the limit and sheds
// nothing. It stops at the first rung that does not: a heavier rung that
// happens to pass behind a failing one is a backlog that has not shown yet,
// not capacity. ok is false when not even the lightest rung qualifies.
func maxRateInSLO(ladder []rung, limit uint64) (rate float64, ok bool) {
	for _, r := range ladder {
		if r.shed > 0 || r.p99 > limit {
			break
		}
		rate, ok = nominalRate(r.gap), true
	}
	return rate, ok
}

// sums over a set of simulated cells, from repetition 0.
type simSums struct {
	cycles, commits, aborts float64
	l1h, l1m, l2h, l2m      float64
	grants, leases          float64
}

func sumSim(res []cellResult, keep func(cell) bool) simSums {
	var s simSums
	for i := range res {
		r := &res[i]
		if r.cell.native || r.first.Stats == nil || !keep(r.cell) {
			continue
		}
		m := r.first
		s.cycles += float64(m.WallCycles)
		s.commits += float64(m.Stats.Commits())
		s.aborts += float64(m.Stats.TotalAborts())
		if c := m.CacheStats; c != nil {
			s.l1h += float64(c.L1Hits)
			s.l1m += float64(c.L1Misses)
			s.l2h += float64(c.L2Hits)
			s.l2m += float64(c.L2Misses)
		}
		s.grants += float64(m.Sched.Grants)
		s.leases += float64(m.Sched.Leases)
	}
	return s
}

func anyCell(cell) bool { return true }

func byScheme(s string) func(cell) bool { return func(c cell) bool { return c.scheme == s } }

// isTimed keeps the cells that enter the timed sums.
func isTimed(c cell) bool { return !c.exactOnly }

// ladderOf reads the load ladder out of a service workload's results: the
// rungs are the cells run under the default admission control, lightest
// first.
func ladderOf(res []cellResult) []rung {
	var out []rung
	for i := range res {
		r := &res[i]
		s := r.first.Service
		if s == nil || !r.cell.mayShed {
			continue
		}
		out = append(out, rung{gap: r.cell.gap, p99: s.LatencyP99, shed: s.Shed, offered: s.Offered, goodput: s.Goodput})
	}
	return out
}

// exactOf computes a workload's simulated-clock results. All of them are
// read from repetition 0; runRep has asserted that every other repetition
// matches it byte for byte.
func exactOf(workload string, res []cellResult) map[string]float64 {
	out := map[string]float64{}
	switch workload {
	case "sim-1core", "sim-4core":
		all := sumSim(res, anyCell)
		out["sim_cycles_per_txn"] = all.cycles / all.commits
		out["hastm_speedup_vs_stm"] = sumSim(res, byScheme("stm")).cycles / sumSim(res, byScheme("hastm")).cycles
	case "service-open":
		t := sumSim(res, isTimed)
		out["sim_cycles_per_txn"] = t.cycles / t.commits
		// The latency cell is the last one: the lightest rung, long enough
		// for an exact p99.
		if s := res[len(res)-1].first.Service; s != nil {
			out["sojourn_p50_cycles"] = float64(s.LatencyP50)
			out["sojourn_p99_cycles"] = float64(s.LatencyP99)
		}
		// No qualifying rung reads as rate 0, the worst value of a
		// higher-is-better metric.
		out["max_rate_in_slo"], _ = maxRateInSLO(ladderOf(res), sloP99Cycles)
	}
	return out
}

// layersOf derives the per-layer metrics that come from a workload's own
// cells (the rest come from the ladder's micro-benchmarks).
func layersOf(wr *workloadReport) map[string]float64 {
	workload, res := wr.Name, wr.results
	out := map[string]float64{}
	for name, m := range wr.Exact {
		out[workload+"."+name] = m.Value
	}
	// sumOver adds one figure of every cell that keep selects.
	sumOver := func(keep func(cell) bool, pick func(*cellResult) float64) float64 {
		var t float64
		for i := range res {
			if keep(res[i].cell) {
				t += pick(&res[i])
			}
		}
		return t
	}
	minNS := func(r *cellResult) float64 { return minOf(r.full.ns) }
	switch workload {
	case "sim-1core", "sim-4core":
		all := sumSim(res, anyCell)
		out["cache.l1_hit_ratio."+workload] = all.l1h / (all.l1h + all.l1m)
		out["cache.l2_hit_ratio."+workload] = all.l2h / (all.l2h + all.l2m)
	}
	switch workload {
	case "sim-1core":
		for _, s := range simSchemes {
			ss := sumSim(res, byScheme(s))
			out[s+".cycles_per_txn"] = ss.cycles / ss.commits
			out[s+".host_ns_per_txn"] = sumOver(byScheme(s), minNS) / ss.commits
		}
		for _, s := range allocSchemes {
			medianMallocs := func(r *cellResult) float64 { return median(r.full.mallocs) }
			out[s+".allocs_per_txn"] = sumOver(byScheme(s), medianMallocs) / sumSim(res, byScheme(s)).commits
		}
	case "sim-4core":
		all := sumSim(res, anyCell)
		out["sim.leases_per_kgrant"] = all.leases * 1000 / all.grants
		for _, s := range contendSchemes {
			ss := sumSim(res, byScheme(s))
			out[s+".abort_ratio"] = ss.aborts / (ss.aborts + ss.commits)
		}
	case "native-read", "native-write":
		kind := workload[len("native-"):]
		commits := func(r *cellResult) float64 { return float64(r.committed) }
		// Aborts are host-dependent; repetition 0 is as good a sample as any
		// and the ratio is small either way.
		aborts := sumOver(anyCell, func(r *cellResult) float64 { return float64(r.first.Stats.TotalAborts()) })
		out["native.abort_ratio."+kind] = aborts / (aborts + sumOver(anyCell, commits))
		if kind == "write" {
			tput := func(goroutines int) float64 {
				on := func(c cell) bool { return c.threads == goroutines }
				return sumOver(on, commits) / sumOver(on, minNS)
			}
			out["native.scaling_2thread"] = tput(2) / tput(1)
		}
	case "service-open":
		for _, r := range ladderOf(res) {
			out[fmt.Sprintf("service.shed_ratio.g%d", r.gap)] = float64(r.shed) / float64(r.offered)
			out[fmt.Sprintf("service.goodput_per_mcycle.g%d", r.gap)] = r.goodput
		}
	}
	return out
}
