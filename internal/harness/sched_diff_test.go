package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"hastm.dev/hastm/internal/faults"
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
)

// The harness-level scheduler differential test runs full evaluation cells
// — real TM schemes over real data structures, with telemetry and
// transaction traces attached — under both simulator schedulers and
// demands identical simulated results. It complements the randomized
// program-level suite in internal/sim by covering the actual workloads the
// figures are built from. The reference scheduler grants every operation,
// Exec included, while the lease scheduler absorbs each Exec without a
// grant, so agreement here is also the proof that Exec commutes under real
// barrier traffic.

// runBoth executes one configuration under the lease and reference
// schedulers and returns both metric sets.
func runBoth(t *testing.T, scheme, workload string, cores int) (lease, ref RunMetrics) {
	t.Helper()
	o := QuickOptions()
	o.Ops = 192
	o.TxnTraceMax = 4096
	var err error
	lease, err = RunOne(scheme, workload, cores, o, 20)
	if err != nil {
		t.Fatalf("lease run: %v", err)
	}
	o.ReferenceScheduler = true
	ref, err = RunOne(scheme, workload, cores, o, 20)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return lease, ref
}

func txnTraceBytes(t *testing.T, tb *telemetry.TraceBuffer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.WriteJSONL(telemetry.NewSyncWriter(&buf), "cell"); err != nil {
		t.Fatalf("trace render: %v", err)
	}
	return buf.Bytes()
}

// compareSchedulers asserts a lease and a reference run of one cell agree
// on every simulated result and differ only in what a lease saves.
func compareSchedulers(t *testing.T, lease, ref RunMetrics) {
	t.Helper()
	if lease.WallCycles != ref.WallCycles {
		t.Errorf("wall cycles: lease %d, reference %d", lease.WallCycles, ref.WallCycles)
	}
	if !reflect.DeepEqual(lease.Stats.Totals(), ref.Stats.Totals()) {
		t.Errorf("stats totals diverge:\nlease: %+v\nreference: %+v",
			lease.Stats.Totals(), ref.Stats.Totals())
	}
	if !reflect.DeepEqual(lease.Stats, ref.Stats) {
		t.Errorf("per-core accounting blocks diverge:\nlease: %+v\nreference: %+v", lease.Stats, ref.Stats)
	}
	lb, rb := txnTraceBytes(t, lease.TxnTrace), txnTraceBytes(t, ref.TxnTrace)
	if !bytes.Equal(lb, rb) {
		t.Errorf("transaction trace bytes diverge (%d vs %d bytes)", len(lb), len(rb))
	}
	if !reflect.DeepEqual(lease.Service, ref.Service) {
		t.Errorf("service records diverge:\nlease: %+v\nreference: %+v", lease.Service, ref.Service)
	}
	if lease.Sched.Grants != ref.Sched.Grants {
		t.Errorf("grants: lease %d, reference %d", lease.Sched.Grants, ref.Sched.Grants)
	}
	if ref.Sched.HandoffsAvoided() != 0 {
		t.Errorf("reference scheduler avoided %d handoffs, want 0", ref.Sched.HandoffsAvoided())
	}
}

func TestSchedulerDifferentialHarness(t *testing.T) {
	cases := []struct {
		scheme, workload string
		cores            int
	}{
		{SchemeHASTM, WorkloadBST, 4},
		{SchemeHASTM, WorkloadHash, 2},
		{SchemeSTM, WorkloadBTree, 4},
		{SchemeLock, WorkloadHash, 4},
		{SchemeHyTM, WorkloadBST, 2},
		{SchemeSeq, WorkloadBTree, 1},
		// The deferred-update schemes and the hardware baseline, whose
		// commit paths are Exec-heavy in different places.
		{SchemeLazy, WorkloadBST, 4},
		{SchemeLazy, WorkloadHash, 8},
		{SchemeMVCC, WorkloadBTree, 4},
		{SchemeMVCC, WorkloadBST, 8},
		{SchemeHTM, WorkloadHash, 4},
		{SchemeHTM, WorkloadBST, 8},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.scheme+"/"+tc.workload, func(t *testing.T) {
			t.Parallel()
			lease, ref := runBoth(t, tc.scheme, tc.workload, tc.cores)
			compareSchedulers(t, lease, ref)
		})
	}
	// One open-loop service cell: arrivals, admission and latency all key
	// off the core clocks Exec advances.
	t.Run("service/stm", func(t *testing.T) {
		t.Parallel()
		o := quick()
		o.TxnTraceMax = 1 << 15
		sc := ServiceConfig(o, ServiceCores, 256, 0.9, DefaultAdmission())
		lease, err := RunOneServiceScheme(SchemeSTM, ServiceCores, sc, o)
		if err != nil {
			t.Fatalf("lease run: %v", err)
		}
		o.ReferenceScheduler = true
		ref, err := RunOneServiceScheme(SchemeSTM, ServiceCores, sc, o)
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}
		compareSchedulers(t, lease, ref)
	})
}

// TestBarrierResetHazard pins the one place Exec was not core-private: core
// 0 resets the per-core cycle counters in a Step while the other cores wait
// in the barrier. A waiter spinning on Exec would charge — in host order —
// before a reset its clock is after, and lose that charge under the lease
// scheduler only; the barrier's granted spin keeps both schedulers exact.
func TestBarrierResetHazard(t *testing.T) {
	const cores = 4
	run := func(reference bool) string {
		cfg := sim.DefaultConfig(cores)
		cfg.ReferenceScheduler = reference
		m := sim.New(cfg)
		arrived, goFlag := m.Mem.AllocLines(1), m.Mem.AllocLines(1)
		line := m.Mem.AllocLines(cores)
		prog := func(c *sim.Ctx) {
			// Staggered arrivals, so every waiter spins across the reset at
			// a different phase of its Load/spin pair.
			for i := 0; i < 40+17*c.ID(); i++ {
				c.Exec(uint64(1 + (i+c.ID())%3))
				c.Load(line + uint64(c.ID())*mem.LineSize)
			}
			barrier(c, arrived, goFlag, cores, func(m *sim.Machine) { m.Stats.Reset() })
			c.SetCat(telemetry.Commit)
			for i := 0; i < 20; i++ {
				c.Exec(2)
				c.Store(line+uint64(c.ID())*mem.LineSize, uint64(i))
			}
		}
		m.Run(prog, prog, prog, prog)
		var out string
		for i := 0; i < cores; i++ {
			out += fmt.Sprintln("core", i, *m.Stats.Block(i))
		}
		return out
	}
	if lease, ref := run(false), run(true); lease != ref {
		t.Errorf("per-category cycles after the barrier reset:\nlease:\n%sreference:\n%s", lease, ref)
	}
}

// TestLeaseRatioGate is the deterministic form of the handoff cliff's gate:
// on the repo benchmark's stm/bst/4c cell at most 45 % of grants may begin
// a lease (measured 0.384; 0.753 while every Exec still took a grant).
func TestLeaseRatioGate(t *testing.T) {
	o := DefaultOptions()
	o.Ops, o.Warmup = 256, 64
	m, err := RunOne(SchemeSTM, WorkloadBST, 4, o, 20)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(m.Sched.Leases) / float64(m.Sched.Grants); ratio > 0.45 {
		t.Errorf("stm/bst/4c: %d leases for %d grants = %.3f, want <= 0.45",
			m.Sched.Leases, m.Sched.Grants, ratio)
	}
}

// TestSchedulerDifferentialFaulted runs the fault-injection conformance
// cell under both schedulers: injected faults fire on scheduler grants, so
// this checks the lease preserves the grant stream the fault plane
// derives its schedule from.
func TestSchedulerDifferentialFaulted(t *testing.T) {
	spec, err := faults.ParseSpec("suspend=900,evict=600,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	o := QuickOptions()
	o.Ops = 192
	lease, err := FaultedRun(SchemeHASTM, WorkloadBST, 4, o, spec, 20)
	if err != nil {
		t.Fatalf("lease faulted run: %v", err)
	}
	o.ReferenceScheduler = true
	ref, err := FaultedRun(SchemeHASTM, WorkloadBST, 4, o, spec, 20)
	if err != nil {
		t.Fatalf("reference faulted run: %v", err)
	}
	if !reflect.DeepEqual(lease, ref) {
		t.Errorf("fault reports diverge:\nlease: %+v\nreference: %+v", lease, ref)
	}
}
