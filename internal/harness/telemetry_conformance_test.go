package harness

import (
	"reflect"
	"testing"

	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// telemetryPlans builds the multicore contention figure (fig18) with
// transaction tracing enabled — the configuration with the richest mix of
// schemes, abort causes and mode switches.
func telemetryPlans(workers int) []*Plan {
	o := QuickOptions()
	o.TxnTraceMax = telemetry.DefaultTraceLimit
	plans := []*Plan{planFig18(o)}
	Execute(plans, ExecConfig{Workers: workers})
	return plans
}

// Telemetry is part of the determinism contract: per-cell counter totals,
// gauge high-water marks and the per-transaction event sequence must be
// identical whether cells ran serially or on eight workers.
func TestTelemetryIdenticalAcrossWorkerCounts(t *testing.T) {
	serial := telemetryPlans(1)
	parallel := telemetryPlans(8)
	for pi, sp := range serial {
		pp := parallel[pi]
		for ci, sc := range sp.Cells {
			pc := pp.Cells[ci]
			id := sc.Figure + "/" + sc.Label
			st, pt := sc.Metrics(), pc.Metrics()
			if !reflect.DeepEqual(st.Stats.Totals(), pt.Stats.Totals()) {
				t.Errorf("%s: stats and telemetry totals differ:\n-j1: %+v\n-j8: %+v",
					id, st.Stats.Totals(), pt.Stats.Totals())
			}
			if !reflect.DeepEqual(st.TxnTrace.Events(), pt.TxnTrace.Events()) {
				t.Errorf("%s: transaction event traces differ (-j1: %d events, -j8: %d events)",
					id, st.TxnTrace.Len(), pt.TxnTrace.Len())
			}
		}
	}
}

// errTestBody is the sentinel failure TestBodyErrorEmitsTerminalEvent's
// transaction body returns.
var errTestBody = errTest("body failed")

type errTest string

func (e errTest) Error() string { return string(e) }

// The retry path must feed the same accounting as the abort path: every
// EvRetry event carries the waiting attempt's full (reads, writes, undo)
// footprint, and the set-size high-water marks observe retry attempts —
// historically both silently skipped the retry case.
func TestRetryEventsCarryFootprint(t *testing.T) {
	machine := machineFor(2, QuickOptions(), nil)
	xb := telemetry.NewTraceBuffer(0)
	machine.SetTxnTrace(xb)
	sys := buildScheme(SchemeSTM, machine, 2, QuickOptions())
	flag := machine.Mem.Alloc(64, 64)
	s1 := machine.Mem.Alloc(64, 64)
	s2 := machine.Mem.Alloc(64, 64)
	ack := machine.Mem.Alloc(64, 64)

	machine.Run(
		func(c *sim.Ctx) {
			// Consumer: the waiting attempt writes two records (two undo
			// entries) before retrying — a larger footprint than any
			// committing transaction in this run, so only the retry path
			// can raise the high-water marks to 2.
			th := sys.Thread(c)
			if err := th.Atomic(func(tx tm.Txn) error {
				if tx.Load(flag) == 0 {
					tx.Store(s1, 1)
					tx.Store(s2, 1)
					tx.Retry()
				}
				tx.Store(ack, 1)
				return nil
			}); err != nil {
				panic(err)
			}
		},
		func(c *sim.Ctx) {
			th := sys.Thread(c)
			c.Exec(3000)
			if err := th.Atomic(func(tx tm.Txn) error { tx.Store(flag, 1); return nil }); err != nil {
				panic(err)
			}
		})

	if machine.Mem.Load(ack) != 1 {
		t.Fatal("consumer never completed")
	}
	retries := 0
	for _, ev := range xb.Events() {
		if ev.Kind != telemetry.EvRetry {
			continue
		}
		retries++
		if ev.Reads == 0 || ev.Writes != 2 || ev.Undo != 2 {
			t.Errorf("retry event missing footprint: reads=%d writes=%d undo=%d (want reads>0, writes=2, undo=2)",
				ev.Reads, ev.Writes, ev.Undo)
		}
	}
	if retries == 0 {
		t.Fatal("no retry events traced; the consumer never waited")
	}
	if hwm := machine.Stats.GaugeMax(telemetry.WriteSetHWM); hwm < 2 {
		t.Errorf("WriteSetHWM = %d; the retrying attempt's 2-record write set was not observed", hwm)
	}
	if hwm := machine.Stats.GaugeMax(telemetry.UndoLogHWM); hwm < 2 {
		t.Errorf("UndoLogHWM = %d; the retrying attempt's 2-entry undo log was not observed", hwm)
	}
}

// A transaction body that fails with an error must still terminate its
// trace: the begin pairs with an EvError terminal (not an abort — the
// abort counters and traced abort events stay in 1:1 correspondence).
func TestBodyErrorEmitsTerminalEvent(t *testing.T) {
	machine := machineFor(1, QuickOptions(), nil)
	xb := telemetry.NewTraceBuffer(0)
	machine.SetTxnTrace(xb)
	sys := buildScheme(SchemeSTM, machine, 1, QuickOptions())
	cell := machine.Mem.Alloc(64, 64)

	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		err := th.Atomic(func(tx tm.Txn) error {
			tx.Store(cell, 42)
			return errTestBody
		})
		if err != errTestBody {
			panic("body error not surfaced")
		}
	})

	var begins, errors int
	for _, ev := range xb.Events() {
		switch ev.Kind {
		case telemetry.EvBegin:
			begins++
		case telemetry.EvError:
			errors++
			if ev.Undo != 1 || ev.Writes != 1 {
				t.Errorf("error event missing footprint: writes=%d undo=%d", ev.Writes, ev.Undo)
			}
		case telemetry.EvAbort:
			t.Errorf("body error traced as abort (cause %q); it must not count as one", ev.Cause)
		}
	}
	if begins != 1 || errors != 1 {
		t.Errorf("begin/error events = %d/%d, want 1/1 (dangling begin breaks per-txn accounting)", begins, errors)
	}
	if machine.Mem.Load(cell) != 0 {
		t.Error("failed body's store was not rolled back")
	}
	if machine.Stats.TotalAborts() != 0 {
		t.Errorf("body error counted as abort (%d)", machine.Stats.TotalAborts())
	}
}

// Every abort must be attributed to exactly one cause: for each scheme the
// per-cause abort counters must sum to the independently counted abort
// events in the transaction trace, and every traced cause must be a known
// cause name.
func TestAbortCausesSumToTotalAborts(t *testing.T) {
	known := map[string]bool{}
	for _, c := range telemetry.AbortCauses() {
		known[c.String()] = true
	}

	o := QuickOptions()
	o.TxnTraceMax = telemetry.DefaultTraceLimit
	cases := []struct {
		scheme string
		cores  int
	}{
		{SchemeSeq, 1},
		{SchemeLock, 2},
		{SchemeSTM, 2},
		{SchemeHASTM, 2},
		{SchemeCautious, 2},
		{SchemeNoReuse, 2},
		{SchemeNaive, 2},
		{SchemeHyTM, 2},
		{SchemeHTM, 2},
	}
	for _, tc := range cases {
		m, err := RunOne(tc.scheme, WorkloadBST, tc.cores, o, 20)
		if err != nil {
			t.Fatalf("%s: %v", tc.scheme, err)
		}
		if m.TxnTrace.Dropped() != 0 {
			t.Fatalf("%s: trace dropped %d events; the cross-check needs the full trace",
				tc.scheme, m.TxnTrace.Dropped())
		}

		tot := m.Stats.Totals()
		var byCause uint64
		for _, cause := range telemetry.AbortCauses() {
			byCause += tot.Aborts(cause)
		}
		if byCause != tot.TotalAborts() {
			t.Errorf("%s: per-cause aborts sum to %d, TotalAborts = %d",
				tc.scheme, byCause, tot.TotalAborts())
		}

		var traced uint64
		for _, ev := range m.TxnTrace.Events() {
			if ev.Kind != telemetry.EvAbort {
				continue
			}
			traced++
			if !known[ev.Cause] {
				t.Errorf("%s: abort event with unknown cause %q", tc.scheme, ev.Cause)
			}
		}
		if traced != tot.TotalAborts() {
			t.Errorf("%s: trace has %d abort events, counters report %d aborts",
				tc.scheme, traced, tot.TotalAborts())
		}
	}
}
