package harness

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"hastm.dev/hastm/internal/telemetry"
)

// reportCache memoises full report sets per worker count so the
// equivalence and golden tests share runs instead of re-simulating.
var reportCache = struct {
	sync.Mutex
	m map[int][]*Report
}{m: map[int][]*Report{}}

// allSpecs is every figure plus every extension experiment.
func allSpecs() []Spec { return append(All(), Extensions()...) }

// reportsAt returns the reports for every experiment at QuickOptions,
// executed with the given worker count.
func reportsAt(tb testing.TB, workers int) []*Report {
	tb.Helper()
	reportCache.Lock()
	defer reportCache.Unlock()
	if reps, ok := reportCache.m[workers]; ok {
		return reps
	}
	o := QuickOptions()
	specs := allSpecs()
	plans := make([]*Plan, len(specs))
	for i, s := range specs {
		plans[i] = s.Plan(o)
	}
	reps := Execute(plans, ExecConfig{Workers: workers})
	reportCache.m[workers] = reps
	return reps
}

// The tentpole guarantee: for every figure and extension, the parallel
// engine's report is deep-equal — every table, row and cell, bit for bit —
// to the serial run, at more than one worker count.
func TestParallelReportsMatchSerial(t *testing.T) {
	serial := reportsAt(t, 1)
	if len(serial) != len(allSpecs()) {
		t.Fatalf("got %d reports for %d specs", len(serial), len(allSpecs()))
	}
	for _, workers := range []int{3, 8} {
		par := reportsAt(t, workers)
		if len(par) != len(serial) {
			t.Fatalf("-j %d produced %d reports, serial produced %d", workers, len(par), len(serial))
		}
		for i := range serial {
			if serial[i].ID != par[i].ID {
				t.Fatalf("-j %d report %d is %s, serial is %s", workers, i, par[i].ID, serial[i].ID)
			}
			if !reflect.DeepEqual(serial[i], par[i]) {
				t.Errorf("-j %d: report %s differs from serial:\nserial: %s\nparallel: %s",
					workers, serial[i].ID, renderString(serial[i]), renderString(par[i]))
			}
		}
	}
}

func renderString(r *Report) string {
	var sb strings.Builder
	r.Render(&sb)
	return sb.String()
}

// Execute with Workers <= 0 must resolve to GOMAXPROCS and still work.
func TestExecuteDefaultWorkers(t *testing.T) {
	o := QuickOptions()
	p := planFig12(o)
	reps := Execute([]*Plan{p}, ExecConfig{})
	if len(reps) != 1 || reps[0].ID != "fig12" {
		t.Fatalf("unexpected reports: %+v", reps)
	}
	want := figure("fig12", o)
	if !reflect.DeepEqual(reps[0], want) {
		t.Error("default-worker execution differs from serial Fig12")
	}
}

// Progress output must contain one line per cell and not perturb results.
func TestExecuteProgress(t *testing.T) {
	o := QuickOptions()
	var sb strings.Builder
	p := planFig18(o)
	n := len(p.Cells)
	reps := Execute([]*Plan{p}, ExecConfig{Workers: 2, ProgressSync: telemetry.NewSyncWriter(&sb)})
	if got := strings.Count(sb.String(), "\n"); got != n {
		t.Errorf("progress wrote %d lines, want %d:\n%s", got, n, sb.String())
	}
	if !strings.Contains(sb.String(), "fig18") {
		t.Errorf("progress lines lack the figure id:\n%s", sb.String())
	}
	if !reflect.DeepEqual(reps[0], figure("fig18", o)) {
		t.Error("progress-enabled run differs from serial Fig18")
	}
}

// Reading an unexecuted cell is a scheduling bug and must panic loudly.
func TestUnexecutedCellPanics(t *testing.T) {
	p := planFig20(QuickOptions())
	defer func() {
		if recover() == nil {
			t.Error("Metrics() on an unexecuted cell did not panic")
		}
	}()
	p.Cells[0].Metrics()
}
