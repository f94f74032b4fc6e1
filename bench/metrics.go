package main

import "fmt"

// metricDef is one glossary entry. The same table feeds the printed report,
// BENCHMARK.json (a test holds the two together) and the README.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // share of the parent's median a later change may lose; end-to-end only
	Moves  string  // per-layer only: the end-to-end metric and workload it should move
}

// measure is one reported number.
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics every workload reports and the driver gates.
// Host-time percentiles are deliberately absent: on this VM they do not
// repeat (see README, non-goals); latency lives on the simulated clock.
//
// ops_per_s is host throughput in the workload's own unit of work: granted
// architectural operations on the simulator (the "simulated instructions
// per host second" of simulator practice), committed transactions on the
// native backend. Transactions per second is printed beside it, ungated:
// on the simulator the work in a transaction follows the shape of the
// randomly built structure, so txns/s moves 4-17% from seed to seed with
// unchanged code, while operations per second does not.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "host_allocs_per_txn", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "host_alloc_bytes_per_txn", Unit: "B", Better: "lower", Bound: 0.02},
}

// exactDef is a simulated-clock result of one workload. It repeats exactly
// for a fixed seed (the runner asserts that in every repetition and fails
// the cell otherwise), so two commits compare exactly at the same seed.
// Because the driver wants every end-to-end metric from every workload and
// these exist only where a simulated machine runs, they are printed with
// their workload and exported as per-layer metrics named <workload>.<name>.
type exactDef struct {
	metricDef
	Workloads []string
}

var exactMetrics = []exactDef{
	{metricDef{Name: "sim_cycles_per_txn", Unit: "cycles", Better: "lower"}, []string{"sim-1core", "sim-4core", "service-open"}},
	{metricDef{Name: "hastm_speedup_vs_stm", Unit: "ratio", Better: "higher"}, []string{"sim-1core", "sim-4core"}},
	{metricDef{Name: "sojourn_p50_cycles", Unit: "cycles", Better: "lower"}, []string{"service-open"}},
	{metricDef{Name: "sojourn_p99_cycles", Unit: "cycles", Better: "lower"}, []string{"service-open"}},
	{metricDef{Name: "max_rate_in_slo", Unit: "req/Mcycle", Better: "higher"}, []string{"service-open"}},
}

var (
	simSchemes     = []string{"seq", "lock", "stm", "hastm", "hytm", "lazy", "mvcc"}
	allocSchemes   = []string{"stm", "hastm", "lazy", "mvcc"}
	contendSchemes = []string{"stm", "hastm", "lazy"}
	structures     = []string{"bst", "hashtable", "btree"}
	// gapLadder is the open-loop load ladder, mean per-core inter-arrival
	// gap in simulated cycles, lightest first.
	gapLadder = []uint64{1024, 640, 512, 400, 320, 256}
)

// perLayer lists every metric of the traced run, module by module, in the
// order of the cost ladder: raw memory, cache, scheduler, barrier, commit,
// data-structure operation, service request.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var d []metricDef
	ns := func(name, moves string) {
		d = append(d, metricDef{Name: name, Unit: "ns", Better: "lower", Moves: moves})
	}
	add := func(name, unit, better, moves string) {
		d = append(d, metricDef{Name: name, Unit: unit, Better: better, Moves: moves})
	}
	const setupAll = "setup_s on every workload"
	ns("mem.load_ns", setupAll+"; ops_per_s on sim-1core")
	ns("mem.store_ns", setupAll+"; ops_per_s on sim-1core")
	ns("sim.machine_new_ns", setupAll)
	ns("workloads.populate_ns", setupAll)
	ns("harness.cell_overhead_ns", setupAll)
	ns("cache.l1_hit_ns", "ops_per_s on sim-1core")
	ns("cache.l2_hit_ns", "ops_per_s on sim-1core")
	ns("cache.miss_ns", "ops_per_s on sim-1core")
	ns("cache.remote_inval_ns", "ops_per_s on sim-4core")
	for _, w := range []string{"sim-1core", "sim-4core"} {
		add("cache.l1_hit_ratio."+w, "ratio", "higher", "sim_cycles_per_txn on "+w)
		add("cache.l2_hit_ratio."+w, "ratio", "higher", "sim_cycles_per_txn on "+w)
	}
	ns("sim.op_ns_1core", "flat on sim-1core (one lease, no handoff)")
	ns("sim.op_ns_4core", "ops_per_s on sim-4core")
	add("sim.leases_per_kgrant", "1/kgrant", "lower", "ops_per_s on sim-4core")
	add("sim.cycles_per_host_s", "cycles/s", "higher", "ops_per_s on sim-4core")
	for _, s := range simSchemes {
		add(s+".cycles_per_txn", "cycles", "lower", "sim_cycles_per_txn, hastm_speedup_vs_stm on sim-1core")
		ns(s+".host_ns_per_txn", "ops_per_s on sim-1core")
	}
	for _, s := range allocSchemes {
		add(s+".allocs_per_txn", "count", "lower", "host_allocs_per_txn on sim-1core")
	}
	for _, s := range contendSchemes {
		add(s+".abort_ratio", "ratio", "lower", "sim_cycles_per_txn on sim-4core")
	}
	const t1 = "ops_per_s on sim-1core"
	ns("stm.read_barrier_ns", t1)
	ns("stm.write_barrier_ns", t1)
	ns("stm.commit_ns", t1)
	ns("core.read_barrier_ns", t1)
	ns("core.commit_ns", t1)
	ns("lazystm.read_barrier_ns", t1)
	ns("lazystm.commit_ns", t1)
	ns("native.empty_txn_ns", "ops_per_s on native-read")
	ns("native.read_barrier_ns", "ops_per_s on native-read")
	ns("native.write_barrier_ns", "ops_per_s on native-read, native-write")
	ns("native.writer_commit_ns", "ops_per_s on native-write")
	add("native.abort_ratio.read", "ratio", "lower", "ops_per_s on native-read")
	add("native.abort_ratio.write", "ratio", "lower", "ops_per_s on native-write")
	add("native.scaling_2thread", "ratio", "higher", "ops_per_s on native-write")
	for _, s := range []string{"hashtable", "bst", "btree"} {
		ns("workloads."+s+"_lookup_ns", "ops_per_s on native-read")
		ns("workloads."+s+"_update_ns", "ops_per_s on native-write")
	}
	const so = "ops_per_s on service-open"
	ns("workloads.oracle_verify_ns_per_op", so)
	ns("service.zipf_next_ns", so)
	ns("service.classify_ns", so)
	ns("service.histogram_record_ns", so)
	ns("service.bank_op_ns", so)
	ns("service.native_sat_ns_per_req", so)
	ns("service.request_overhead_ns", so)
	for _, g := range gapLadder {
		add(fmt.Sprintf("service.shed_ratio.g%d", g), "ratio", "lower", "max_rate_in_slo on service-open")
		add(fmt.Sprintf("service.goodput_per_mcycle.g%d", g), "req/Mcycle", "higher", "max_rate_in_slo on service-open")
	}
	add("service.native_sleep_overshoot_us", "us", "lower", "informational: native sojourn is not gated")
	add("service.native_default_shed_ratio", "ratio", "lower", "informational: native sojourn is not gated")
	for _, e := range exactMetrics {
		for _, w := range e.Workloads {
			m := e.metricDef
			m.Name = w + "." + e.Name
			m.Moves = "the paper's axis: exact at a fixed seed"
			d = append(d, m)
		}
	}
	add("trace_overhead_ratio", "ratio", "higher", "traced / untraced ops_per_s of the selected workload")
	return d
}

// findDef looks a metric up by name across the three tables.
func findDef(name string) (metricDef, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m, true
		}
	}
	for _, e := range exactMetrics {
		if e.Name == name {
			return e.metricDef, true
		}
	}
	return metricDef{}, false
}
