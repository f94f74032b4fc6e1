package harness

import (
	"reflect"
	"testing"

	"hastm.dev/hastm/internal/faults"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// stormSpec is the suite's standard fault mix: rates low enough that
// transactions make progress between injections, high enough that every
// kind fires many times across the matrix.
func stormSpec() faults.Spec {
	return faults.Spec{SuspendEvery: 900, EvictEvery: 600, SnoopEvery: 1100, HTMAbortEvery: 1700, Seed: 3}
}

// verdicts returns an executed verdict plan's rows as the suite's own report
// type, in cell order.
func verdicts[R VerdictRow](t *testing.T, p *Plan) []*R {
	t.Helper()
	var out []*R
	for _, c := range p.Cells {
		rep, ok := c.Verdict.(R)
		if !ok {
			t.Fatalf("cell %s/%s produced no report: %s", c.Figure, c.Label, c.Err)
		}
		out = append(out, &rep)
	}
	return out
}

// A verdict cell whose function panics is a failed cell with a FAIL row under
// the suite's header, not a nil row for the renderer to trip over.
func TestCrashedVerdictCellHasARow(t *testing.T) {
	p := verdictPlan("faultstorm")
	verdictCell(p, "stm/bst/4", func() (FaultReport, RunMetrics) { panic("boom") })
	Execute([]*Plan{p}, ExecConfig{Workers: 1})
	c := p.Cells[0]
	if len(FailedCells([]*Plan{p})) != 1 || c.Err != "boom" || c.Verdict.Failure() != "boom" {
		t.Errorf("the cell did not fail with the panic value: Err %q", c.Err)
	}
	if got := c.Verdict.Row(); got != "stm/bst/4  FAIL: boom" || c.Verdict.Header() != (FaultReport{}).Header() {
		t.Errorf("row %q under header %q", got, c.Verdict.Header())
	}
}

// Faultstorm: every scheme × structure must commit its full operation
// count under injected suspensions, evictions, snoops and spurious HTM
// aborts, with zero invariant violations and a final state identical to
// the sequential oracle's.
func TestFaultstormMatrixOracle(t *testing.T) {
	plan := FaultPlan(stormSpec(), QuickOptions(), 2)
	Execute([]*Plan{plan}, ExecConfig{Workers: 4})
	reports := verdicts[FaultReport](t, plan)

	var suspend, evict, snoop, htmabort uint64
	for _, rep := range reports {
		id := rep.Scheme + "/" + rep.Workload
		if rep.Err != "" {
			t.Errorf("%s: %s", id, rep.Err)
		}
		if rep.Committed == 0 {
			t.Errorf("%s: no operations committed", id)
		}
		suspend += rep.Injected["suspend"]
		evict += rep.Injected["evict"]
		snoop += rep.Injected["snoop"]
		htmabort += rep.Injected["htmabort"]
	}
	if suspend == 0 || evict == 0 || snoop == 0 {
		t.Errorf("fault kinds did not all fire: suspend=%d evict=%d snoop=%d", suspend, evict, snoop)
	}
	if htmabort == 0 {
		t.Errorf("no spurious HTM aborts were injected into the htm/hytm cells")
	}
}

// The fault schedule and every verdict must be identical whether the
// sweep's cells ran serially or on eight workers — the `-faults -seed N`
// determinism guarantee.
func TestFaultPlanDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []*FaultReport {
		plan := FaultPlan(stormSpec(), QuickOptions(), 2)
		Execute([]*Plan{plan}, ExecConfig{Workers: workers})
		return verdicts[FaultReport](t, plan)
	}
	serial, parallel := run(1), run(8)
	if len(serial) != len(parallel) {
		t.Fatalf("report counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(*serial[i], *parallel[i]) {
			t.Errorf("%s/%s: fault reports differ across worker counts:\n-j1: %+v\n-j8: %+v",
				serial[i].Scheme, serial[i].Workload, *serial[i], *parallel[i])
		}
	}
}

// §5's virtualization property, under injected context switches: a
// cautious HASTM run suffering suspensions mid-transaction completes via
// resetmarkall-driven full software re-validations and records NO aborts
// — uncontended, a suspension alone must never abort a transaction.
func TestHASTMSuspensionNeverAborts(t *testing.T) {
	spec := faults.Spec{SuspendEvery: 700, Seed: 5}
	rep, err := FaultedRun(SchemeCautious, WorkloadBST, 1, QuickOptions(), spec, 20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != "" {
		t.Fatalf("oracle: %s", rep.Err)
	}
	if rep.Injected["suspend"] == 0 {
		t.Fatal("no suspensions were injected; the test exercised nothing")
	}
	if got := rep.Totals.TotalAborts(); got != 0 {
		t.Errorf("suspensions caused %d aborts (%s); §5 requires re-validation, not abort",
			got, rep.Totals.Report().Stats)
	}
	if rep.Totals.Count(telemetry.FullValidations) == 0 {
		t.Errorf("no full validations recorded; suspensions should force the software validation path")
	}

	// The watermark scheme may legitimately pay aggressive-mode aborts for
	// suspensions (that is §6's trade), but it must still complete, pass
	// the oracle, and suffer no CONFLICT aborts single-threaded.
	wrep, err := FaultedRun(SchemeHASTM, WorkloadBST, 1, QuickOptions(), spec, 20)
	if err != nil {
		t.Fatal(err)
	}
	if wrep.Err != "" {
		t.Fatalf("watermark oracle: %s", wrep.Err)
	}
	for _, cause := range []telemetry.AbortCause{telemetry.AbortValidation, telemetry.AbortLockConflict} {
		if n := wrep.Totals.Aborts(cause); n != 0 {
			t.Errorf("watermark hastm: %d %s aborts in a single-threaded run", n, cause)
		}
	}
}

// Retry and orElse must not lose wakeups while the fault plane is
// suspending cores: a consumer parked on a watch set still observes the
// producer's store and completes.
func TestRetryWakeupUnderSuspension(t *testing.T) {
	machine := machineFor(2, QuickOptions(), nil)
	plane := faults.Attach(machine, faults.Spec{SuspendEvery: 40, Seed: 11})
	sys := buildScheme(SchemeSTM, machine, 2, QuickOptions())

	flagA := machine.Mem.Alloc(64, 64)
	flagB := machine.Mem.Alloc(64, 64)
	scratch := machine.Mem.Alloc(64, 64)
	ackRetry := machine.Mem.Alloc(64, 64)
	ackOrElse := machine.Mem.Alloc(64, 64)

	consumer := func(c *sim.Ctx) {
		th := sys.Thread(c)
		// Plain retry: wait for flagA.
		if err := th.Atomic(func(tx tm.Txn) error {
			if tx.Load(flagA) == 0 {
				tx.Store(scratch, 1) // give the waiting attempt an undo entry
				tx.Retry()
			}
			tx.Store(ackRetry, 1)
			return nil
		}); err != nil {
			panic(err)
		}
		// orElse: first alternative waits on flagA==2 (never set), second
		// on flagB; the union watch set must catch the flagB store.
		if err := th.Atomic(func(tx tm.Txn) error {
			return tx.OrElse(
				func(tx tm.Txn) error {
					if tx.Load(flagA) != 2 {
						tx.Retry()
					}
					return nil
				},
				func(tx tm.Txn) error {
					if tx.Load(flagB) == 0 {
						tx.Retry()
					}
					tx.Store(ackOrElse, 1)
					return nil
				})
		}); err != nil {
			panic(err)
		}
	}
	producer := func(c *sim.Ctx) {
		th := sys.Thread(c)
		c.Exec(5000)
		if err := th.Atomic(func(tx tm.Txn) error { tx.Store(flagA, 1); return nil }); err != nil {
			panic(err)
		}
		c.Exec(5000)
		if err := th.Atomic(func(tx tm.Txn) error { tx.Store(flagB, 1); return nil }); err != nil {
			panic(err)
		}
	}
	machine.Run(consumer, producer)

	if plane.Count(faults.KindSuspend) == 0 {
		t.Fatal("no suspensions were injected; the test exercised nothing")
	}
	if machine.Mem.Load(ackRetry) != 1 {
		t.Error("retry consumer never completed: wakeup lost under suspension")
	}
	if machine.Mem.Load(ackOrElse) != 1 {
		t.Error("orElse consumer never completed: wakeup lost under suspension")
	}
	if machine.Stats.Block(0).Count(telemetry.Retries) == 0 {
		t.Error("consumer never actually waited (retry path untested)")
	}
}
