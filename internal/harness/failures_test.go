package harness

import (
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"strings"
	"testing"

	"hastm.dev/hastm/internal/cache"
	"hastm.dev/hastm/internal/faults"
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/native"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

// A failing cell is reported, never published as a row of zeros and never a
// crash: the tests below make each runner fail the cheapest way it can —
// a name no table holds, no threads, a thread error, a cycle budget the run
// cannot meet — and check the failure comes back named.

func wantErr(t *testing.T, name string, err error, want string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%s: err = %v, want one containing %q", name, err, want)
	}
}

func TestRunnersRejectBadCells(t *testing.T) {
	o := QuickOptions()
	sc := ServiceConfig(o, 1, 1024, 0.9, DefaultAdmission())
	for name, err := range map[string]error{
		"runInterAtomic":       second(runInterAtomic("nope", 4, o)),
		"runSMT":               second(runSMT("nope", false, o)),
		"runMicroKernel":       second(runMicroKernel("nope", 50, 50, 40, warmStep, o)),
		"RunOneNative":         second(RunOneNative("nope", 1, o, 20)),
		"RunOneServiceScheme":  second(RunOneServiceScheme("nope", 1, sc, o)),
		"RunOneServiceNative":  second(RunOneServiceNative(0, sc, o)),
		"ProgressRun scheme":   errString(ProgressRun("nope", AdversarialStorm, 2, o, nil).Err),
		"ProgressRun workload": errString(ProgressRun(SchemeSTM, "nope", 2, o, nil).Err),
	} {
		want := map[string]string{
			"RunOneServiceNative":  "threads must be >= 1",
			"ProgressRun workload": "unknown adversarial workload",
			"RunOneNative":         "unknown workload",
		}[name]
		if want == "" {
			want = `unknown scheme "nope"`
		}
		wantErr(t, name, err, want)
	}
}

func second[T any](_ T, err error) error { return err }

func errString(s string) error {
	if s == "" {
		return nil
	}
	return errors.New(s)
}

// The verdict sweeps turn a configuration their runner rejects into a
// failed row, and Execute's progress line marks it.
func TestVerdictPlansReportRejectedCells(t *testing.T) {
	o := QuickOptions()
	var progress strings.Builder
	plans := []*Plan{FaultPlan(faults.Spec{}, o, 0), ChaosStormPlan(native.ChaosSpec{}, o, 0)}
	Execute(plans, ExecConfig{Workers: 1, ProgressSync: telemetry.NewSyncWriter(&progress)})
	for _, p := range plans {
		for _, c := range p.Cells {
			if !strings.Contains(c.Err, "must be >= 1") {
				t.Errorf("%s/%s: Err = %q, want the zero-thread rejection", c.Figure, c.Label, c.Err)
			}
		}
	}
	if !strings.Contains(progress.String(), "FAILED") {
		t.Errorf("progress lines do not mark the failed cells:\n%s", progress.String())
	}
}

// A thread whose warm-up fails still checks in at the barrier and sits the
// measured phase out; the lowest-numbered failure is the cell's verdict.
func TestWarmupErrorFailsTheCell(t *testing.T) {
	boom := errors.New("boom")
	c, err := newSimCell(simSpec{scheme: SchemeSTM, threads: 2, o: QuickOptions()})
	if err != nil {
		t.Fatal(err)
	}
	_, res := c.run(warmBarrier,
		func(_ *sim.Ctx, _ tm.Thread, id int) error {
			if id == 1 {
				return boom
			}
			return nil
		},
		func(*sim.Ctx, tm.Thread, int) error { return nil })
	wantErr(t, "sim", res.verdict(nil), "thread 1: warmup: boom")

	nc, err := newNativeCell(nativeSpec{threads: 2, o: QuickOptions()})
	if err != nil {
		t.Fatal(err)
	}
	_, res = nc.run(
		func(_ tm.Thread, id int) error {
			if id == 0 {
				return boom
			}
			return nil
		},
		func(tm.Thread, int) error { return nil })
	wantErr(t, "native", res.verdict(nil), "thread 0: warmup: boom")
}

// A cell that cannot finish inside its cycle budget fails with the
// watchdog's report: the fault sweep's row carries it, and a service cell
// stopped in its warm-up reports no rates rather than rates over no time.
func TestCycleBudgetTripFailsTheCell(t *testing.T) {
	o := QuickOptions()
	o.CycleBudget = 2000
	rep, err := FaultedRun(SchemeSTM, WorkloadHash, 2, o, faults.Spec{}, 20)
	if err != nil {
		t.Fatal(err)
	}
	wantErr(t, "FaultedRun", errString(rep.Err), "cycle-budget")
	m, err := RunOneServiceScheme(SchemeSTM, 1, ServiceConfig(o, 1, 1024, 0.9, DefaultAdmission()), o)
	wantErr(t, "RunOneServiceScheme", err, "cycle-budget")
	if m.WallCycles != 0 || m.Service == nil || m.Service.Goodput != 0 {
		t.Errorf("wall %d, service %+v: want no measured phase and zero rates", m.WallCycles, m.Service)
	}
}

// The service oracle names a final state no serial replay of the log
// explains.
func TestServiceOracleRejectsADivergentBank(t *testing.T) {
	o := QuickOptions()
	sc := ServiceConfig(o, 1, 1024, 0.9, DefaultAdmission())
	m := mem.New()
	s, err := newServiceSubject(m, 1, sc)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(1)
	for _, writes := s.bank.Classify(seed); !writes; _, writes = s.bank.Classify(seed) {
		seed++
	}
	if err := s.bank.Op(workloads.Direct{M: m}, workloads.NewRand(seed), true); err != nil { // a transfer the log never saw
		t.Fatal(err)
	}
	wantErr(t, "oracle", s.oracle(m, sc), "oracle:")
}

// failingThread's every atomic block fails.
type failingThread struct{ tm.Thread }

func (failingThread) Atomic(func(tm.Txn) error) error { return io.ErrUnexpectedEOF }

func TestRepeatAtomicStopsOnAnError(t *testing.T) {
	err := repeatAtomic(3, func(tm.Txn) error { return nil })(nil, failingThread{}, 0)
	if err != io.ErrUnexpectedEOF {
		t.Errorf("err = %v, want %v", err, io.ErrUnexpectedEOF)
	}
}

// Assembly and reporting read failed cells, which carry no statistics,
// without dividing by them or dereferencing them.
func TestAssemblyToleratesEmptyMetrics(t *testing.T) {
	empty := &Cell{done: true}
	tbl := abortCauseTable([]cellRow{{name: "failed", cells: []*Cell{empty}}})
	for _, v := range tbl.Rows[0].Cells {
		if v != 0 {
			t.Errorf("abort causes of a failed cell: %v, want zeros", tbl.Rows[0].Cells)
		}
	}
	if got := (RunMetrics{}).TxnsPerSec(); got != 0 {
		t.Errorf("TxnsPerSec with no host time = %v", got)
	}
	if row := (ChaosStormReport{Workload: "bst", Err: "twin failed"}).Row(); !strings.Contains(row, " - ") {
		t.Errorf("row of a cell with no chaos report lacks the '-' hash: %q", row)
	}
	if rec := chaosRecord(&native.ChaosReport{}, errors.New("stalled")); rec.Violation != "stalled" {
		t.Errorf("chaos record violation = %q, want the health error", rec.Violation)
	}
}

// Unknown names past validation are caller bugs: they panic naming what
// was asked for. So does MustGet of a cell a report does not hold.
func TestCallerBugsPanic(t *testing.T) {
	o := QuickOptions()
	for want, f := range map[string]func(){
		`unknown scheme "nope"`:   func() { buildScheme("nope", sim.New(sim.DefaultConfig(1)), 1, o) },
		`unknown workload "nope"`: func() { buildStructure("nope", mem.New(), o) },
		`no cell ("t", "r", "c")`: func() { (&Report{ID: "fig"}).MustGet("t", "r", "c") },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
					t.Errorf("recovered %v, want a panic containing %q", r, want)
				}
			}()
			f()
		}()
	}
}

// A cell whose machine the cache cannot build — more cores than its
// directory names — is an error of the cell description, which validation
// names before any machine is built; the machine builder trusts it.
func TestMachineTooLargeForCell(t *testing.T) {
	_, err := newSimCell(simSpec{scheme: SchemeSTM, threads: cache.MaxGroups + 1, o: QuickOptions()})
	if err == nil || !strings.Contains(err.Error(), "exceeds the 256-entry directory") {
		t.Errorf("newSimCell of %d threads: %v, want the directory error", cache.MaxGroups+1, err)
	}
}

// WriteTxnTraces skips a cell without a trace and returns the writer's
// failure.
func TestWriteTxnTracesErrors(t *testing.T) {
	traced := &Cell{Figure: "f", Label: "traced", done: true}
	traced.metrics.TxnTrace = telemetry.NewTraceBuffer(0)
	for i := uint64(0); i < 100; i++ {
		traced.metrics.TxnTrace.Add(telemetry.TxnEvent{Cycle: 2 * i, Txn: i + 1, Kind: telemetry.EvBegin})
		traced.metrics.TxnTrace.Add(telemetry.TxnEvent{Cycle: 2*i + 1, Txn: i + 1, Kind: telemetry.EvCommit})
	}
	plans := []*Plan{{Cells: []*Cell{{Figure: "f", Label: "untraced", done: true}, traced}}}
	var out strings.Builder
	if written, _, err := WriteTxnTraces(plans, telemetry.NewSyncWriter(&out)); err != nil || written != 200 {
		t.Errorf("WriteTxnTraces = %d events, %v; want 200, nil", written, err)
	}
	if _, _, err := WriteTxnTraces(plans, telemetry.NewSyncWriter(failWriter{})); err != io.ErrShortWrite {
		t.Errorf("WriteTxnTraces to a failing writer = %v, want %v", err, io.ErrShortWrite)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrShortWrite }

// The -json git_rev field: a build's VCS stamp, "+dirty" over a modified
// tree, and "" for a build without one, whatever tree the test runs in.
func TestVCSRevision(t *testing.T) {
	stamp := func(kv ...string) *debug.BuildInfo {
		info := &debug.BuildInfo{}
		for i := 0; i < len(kv); i += 2 {
			info.Settings = append(info.Settings, debug.BuildSetting{Key: kv[i], Value: kv[i+1]})
		}
		return info
	}
	for _, c := range []struct {
		info *debug.BuildInfo
		want string
	}{
		{nil, ""},
		{stamp("vcs.modified", "true"), ""},
		{stamp("vcs.revision", "abc", "vcs.modified", "false"), "abc"},
		{stamp("vcs.revision", "abc", "vcs.modified", "true"), "abc+dirty"},
	} {
		if got := vcsRevision(c.info); got != c.want {
			t.Errorf("vcsRevision(%v) = %q, want %q", c.info, got, c.want)
		}
	}
}
