package service

import (
	"slices"
	"testing"
)

// The ladder's hysteresis, fed synthetic sojourns: two breached 256-request
// windows engage one level (scans are shed first, then transfers, never
// reads), four healthy windows recover one, and every transition folds
// into the core's CellMetrics.
func TestDegradeLadderHysteresis(t *testing.T) {
	const slo, breach, healthy = 1000, 10_000, 100
	d := &degrade{slo: slo}
	// window feeds one full window of latency and returns the transition
	// its last request reports; every earlier request must report none.
	window := func(latency uint64) string {
		t.Helper()
		for i := 1; i < degradeWindow; i++ {
			if cause := d.observe(latency); cause != "" {
				t.Fatalf("request %d of a window reported %q before the window closed", i, cause)
			}
		}
		return d.observe(latency)
	}
	sheds := func(want ...opClass) {
		t.Helper()
		for _, class := range []opClass{ClassRead, ClassTransfer, ClassScan} {
			shed, _ := d.shouldShed(class)
			if wanted := slices.Contains(want, class); shed != wanted {
				t.Errorf("level %d: shed %v = %v, want %v", d.level, class, shed, wanted)
			}
		}
	}

	sheds()
	scans, both := []opClass{ClassScan}, []opClass{ClassScan, ClassTransfer}
	steps := []struct {
		latency uint64
		want    string
		level   int
		shed    []opClass
	}{
		{breach, "", 0, nil}, // one breached window is not enough
		{breach, "shed-scans", 1, scans},
		{breach, "", 1, scans},
		{breach, "shed-transfers", 2, both},
		{breach, "", 2, both}, // the top level holds
		{breach, "", 2, both},
		{healthy, "", 2, both}, // recovery is slower than engaging
		{healthy, "", 2, both},
		{healthy, "", 2, both},
		{healthy, "recover", 1, scans},
	}
	for i, s := range steps {
		if got := window(s.latency); got != s.want || d.level != s.level {
			t.Fatalf("window %d (latency %d): reported %q at level %d, want %q at level %d",
				i+1, s.latency, got, d.level, s.want, s.level)
		}
		sheds(s.shed...)
	}
	if !d.circuitOpen() {
		t.Error("hot-key circuit closed while a level is engaged")
	}

	cm := CellMetrics{MaxDegradeLevel: 1}
	d.fold(&cm)
	if cm.DegradeEngaged != 2 || cm.DegradeRecovered != 1 || cm.MaxDegradeLevel != 2 {
		t.Errorf("folded engaged %d, recovered %d, max level %d; want 2, 1, 2",
			cm.DegradeEngaged, cm.DegradeRecovered, cm.MaxDegradeLevel)
	}
}
