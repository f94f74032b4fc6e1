package harness

import (
	"testing"

	"hastm.dev/hastm/internal/native"
	"hastm.dev/hastm/internal/service"
)

// One chaos-storm cell end to end: the chaos run's content fingerprint
// must match the chaos-free twin, the oracle must pass, and the report
// must carry a populated chaos block.
func TestChaosStormRunVerifies(t *testing.T) {
	o := quick()
	o.Ops = 2000
	spec := native.ChaosSpec{Stall: 60, StallNS: 1000, Preempt: 50, Abort: 40, Seed: 3}
	rep, m, err := ChaosStormRun(WorkloadHash, 4, o, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != "" {
		t.Fatalf("chaos cell failed: %s", rep.Err)
	}
	if rep.Fingerprint != rep.Baseline {
		t.Fatalf("fingerprint %016x != chaos-free twin %016x", rep.Fingerprint, rep.Baseline)
	}
	if rep.Chaos == nil || rep.Chaos.ScheduleLen == 0 {
		t.Fatalf("chaos block missing or empty: %+v", rep.Chaos)
	}
	if m.Chaos != rep.Chaos {
		t.Fatal("RunMetrics.Chaos and report chaos block diverged")
	}
	if rep.Committed == 0 {
		t.Fatal("no operations committed")
	}
}

// The planned schedule hash must be byte-identical across two runs of the
// same spec — the determinism claim the CI chaos job asserts on the CLI.
func TestChaosStormScheduleHashStable(t *testing.T) {
	o := quick()
	o.Ops = 800
	spec := native.ChaosSpec{Abort: 20, Stall: 30, StallNS: 1000, Seed: 9}
	a, _, err := ChaosStormRun(WorkloadBST, 4, o, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ChaosStormRun(WorkloadBST, 4, o, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Err != "" || b.Err != "" {
		t.Fatalf("cells failed: %q / %q", a.Err, b.Err)
	}
	if a.Chaos.ScheduleHash != b.Chaos.ScheduleHash {
		t.Fatalf("schedule hash diverged: %s vs %s", a.Chaos.ScheduleHash, b.Chaos.ScheduleHash)
	}
}

// An unknown workload is a configuration error, not a verdict.
func TestChaosStormRejectsUnknownWorkload(t *testing.T) {
	if _, _, err := ChaosStormRun("nope", 2, quick(), native.ChaosSpec{Abort: 10}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// The queue-delay budgets are per backend: the simulator consults only
// ShedAfterCycles and the native runner only ShedAfterNS. A budget on the
// wrong axis must be ignored — the regression this pins is the old single
// ShedAfter field silently meaning cycles on one backend and nanoseconds
// on the other.
func TestShedBudgetsArePerBackend(t *testing.T) {
	o := quick()

	// Sim at heavy overload with only the native budget set: no shedding,
	// because ShedAfterNS means nothing in simulated cycles.
	sc := ServiceConfig(o, ServiceCores, 64, 0.9, service.AdmissionConfig{ShedAfterNS: 1})
	sc.Degrade = service.DegradeConfig{}
	m, err := RunOneServiceScheme(SchemeSTM, ServiceCores, sc, o)
	if err != nil {
		t.Fatal(err)
	}
	if m.Service.Shed != 0 {
		t.Fatalf("sim shed %d requests on a nanosecond budget", m.Service.Shed)
	}

	// Native at heavy overload with only the simulator budget set: same.
	sc = ServiceConfig(o, 4, 64, 0.9, service.AdmissionConfig{ShedAfterCycles: 1})
	sc.Degrade = service.DegradeConfig{}
	m, err = RunOneServiceNative(4, sc, o)
	if err != nil {
		t.Fatal(err)
	}
	if m.Service.Shed != 0 {
		t.Fatalf("native shed %d requests on a cycle budget", m.Service.Shed)
	}

	// Native with a 1ns budget at overload must shed (the sim-side
	// positive case is TestServiceAdmissionEngages).
	sc = ServiceConfig(o, 4, 64, 0.9, service.AdmissionConfig{ShedAfterNS: 1})
	sc.Degrade = service.DegradeConfig{}
	m, err = RunOneServiceNative(4, sc, o)
	if err != nil {
		t.Fatal(err)
	}
	if m.Service.Shed == 0 {
		t.Fatal("native shed nothing on a 1ns queue-delay budget at overload")
	}
	if s := m.Service; s.Committed+s.Shed != s.Offered {
		t.Fatalf("request conservation broken: %+v", s)
	}
}

// The graceful-degradation ladder must engage under overload with a tight
// SLO — shedding scans (level 1) before transfers — and its accounting
// must keep the conservation identity intact. Each core offers four
// 256-request windows, so two breached ones can engage a level and the
// rest can shed.
func TestServiceDegradeLadderEngages(t *testing.T) {
	o := quick()
	o.Ops = ServiceCores * 4 * 256
	sc := ServiceConfig(o, ServiceCores, 64, 0.9, service.AdmissionConfig{})
	sc.Degrade = service.DegradeConfig{SLOCycles: 500}
	m, err := RunOneServiceScheme(SchemeSTM, ServiceCores, sc, o)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Service
	if s.DegradeEngaged == 0 {
		t.Fatal("overload with a 500-cycle p99 SLO never engaged the ladder")
	}
	if s.DegradeLevelMax == 0 {
		t.Fatal("ladder engaged but max level is 0")
	}
	if s.ShedScans == 0 {
		t.Fatal("level 1 engaged but no scans were shed")
	}
	if s.Committed+s.Shed != s.Offered {
		t.Fatalf("request conservation broken: %+v", s)
	}
	if s.ShedScans+s.ShedTransfers > s.Shed {
		t.Fatalf("class sheds exceed total shed: %+v", s)
	}
}

// With the ladder off (zero DegradeConfig) nothing class-sheds and the
// degrade counters stay zero — pinned so defaulting the ladder on in
// ServiceConfig can never silently change plain admission cells.
func TestServiceDegradeLadderDisabled(t *testing.T) {
	o := quick()
	sc := ServiceConfig(o, ServiceCores, 64, 0.9, service.AdmissionConfig{})
	sc.Degrade = service.DegradeConfig{}
	m, err := RunOneServiceScheme(SchemeSTM, ServiceCores, sc, o)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Service
	if s.ShedScans != 0 || s.ShedTransfers != 0 || s.DegradeEngaged != 0 || s.DegradeLevelMax != 0 {
		t.Fatalf("disabled ladder still acted: %+v", s)
	}
}
