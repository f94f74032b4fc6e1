package harness

import (
	"reflect"
	"strings"
	"testing"

	"hastm.dev/hastm/internal/faults"
	"hastm.dev/hastm/internal/telemetry"
)

// With the escalation ladder armed, every adversarial cell must complete
// and verify, and must actually have used the ladder (escalations and
// irrevocable entries nonzero) — otherwise the cell is not adversarial
// enough to prove anything.
func TestAdversarialLadderCompletes(t *testing.T) {
	o := AdversarialOptions(QuickOptions(), true)
	for _, scheme := range AdversarialSchemes() {
		for _, workload := range AdversarialWorkloads() {
			rep := ProgressRun(scheme, workload, 4, o, nil)
			if rep.Err != "" {
				t.Errorf("%s/%s: %s\n%s", scheme, workload, rep.Err, rep.Detail)
				continue
			}
			if rep.Escalations == 0 || rep.IrrevocableEntries == 0 {
				t.Errorf("%s/%s: completed without escalating (esc=%d irrev=%d) — cell is not adversarial",
					scheme, workload, rep.Escalations, rep.IrrevocableEntries)
			}
			if rep.IrrevocableCycles == 0 {
				t.Errorf("%s/%s: irrevocable entries with zero cycles held", scheme, workload)
			}
		}
	}
}

// Without the ladder, every adversarial cell must trip a watchdog: the
// starvation cell is categorically non-terminating (writers only stop on
// a flag the starved reader sets), and the writer storm burns several
// times the cycle budget in mutual aborts. The watchdog turning these
// into structured reports — rather than hangs — is the subsystem's
// second guarantee.
func TestAdversarialWithoutLadderTrips(t *testing.T) {
	o := AdversarialOptions(QuickOptions(), false)
	for _, scheme := range AdversarialSchemes() {
		for _, workload := range AdversarialWorkloads() {
			rep := ProgressRun(scheme, workload, 4, o, nil)
			if rep.Err == "" {
				t.Errorf("%s/%s: completed without the ladder — not adversarial", scheme, workload)
				continue
			}
			if !strings.Contains(rep.Err, "ProgressViolation") {
				t.Errorf("%s/%s: failed without a ProgressViolation: %s", scheme, workload, rep.Err)
			}
			if rep.Detail == "" {
				t.Errorf("%s/%s: violation carried no rendered diagnosis", scheme, workload)
			}
			if rep.Escalations != 0 {
				t.Errorf("%s/%s: escalations counted with the ladder off", scheme, workload)
			}
		}
	}
}

// The suite's reports — including the new escalation counters and the
// violation diagnoses — must be byte-identical across worker counts and
// between the lease and reference schedulers.
func TestAdversarialDeterminism(t *testing.T) {
	run := func(workers int, reference bool) [][]*ProgressReport {
		base := QuickOptions()
		base.ReferenceScheduler = reference
		var out [][]*ProgressReport
		for _, ladder := range []bool{true, false} {
			plan := ProgressPlan(base, 4, ladder, "")
			Execute([]*Plan{plan}, ExecConfig{Workers: workers})
			out = append(out, verdicts[ProgressReport](t, plan))
		}
		return out
	}
	j1 := run(1, false)
	j8 := run(8, false)
	ref := run(1, true)
	if !reflect.DeepEqual(j1, j8) {
		t.Errorf("adversarial reports differ between -j1 and -j8:\n%v\n%v", j1, j8)
	}
	if !reflect.DeepEqual(j1, ref) {
		t.Errorf("adversarial reports differ between lease and reference schedulers:\n%v\n%v", j1, ref)
	}
}

// The ladder's guarantees must survive the fault plane: cores suspended,
// marked lines evicted, snoops injected — the adversarial cells still
// complete and verify with the ladder armed.
func TestAdversarialUnderFaultPlane(t *testing.T) {
	o := AdversarialOptions(QuickOptions(), true)
	spec := faults.Spec{SuspendEvery: 900, EvictEvery: 600, SnoopEvery: 1100, HTMAbortEvery: 1700, Seed: 3}
	for _, scheme := range AdversarialSchemes() {
		for _, workload := range AdversarialWorkloads() {
			rep := ProgressRun(scheme, workload, 4, o, &spec)
			if rep.Err != "" {
				t.Errorf("%s/%s under faults: %s\n%s", scheme, workload, rep.Err, rep.Detail)
			}
		}
	}
}

// The ext-irrevocable ablation's claim, as a test: with the ladder armed
// at the default budget, the standard figure workloads never escalate and
// run within a whisker of plain HASTM (the token shifts allocation
// addresses, so bit-identity is not expected — but escalations must be
// exactly zero).
func TestIrrevocableSchemeZeroCostWhenIdle(t *testing.T) {
	o := QuickOptions()
	base := runStructure(SchemeHASTM, WorkloadBTree, 4, o)
	ladder := runStructure(SchemeIrrevocable, WorkloadBTree, 4, o)
	if esc := ladder.Stats.Count(telemetry.Escalations); esc != 0 {
		t.Errorf("figure workload escalated %v times with default budget", esc)
	}
	// The handshake is 3 L1 operations per transaction (announce, token
	// check, withdraw); on the quick sizes' short transactions that is a
	// few percent, shrinking with transaction length at figure sizes.
	ratio := float64(ladder.WallCycles) / float64(base.WallCycles)
	if ratio < 0.95 || ratio > 1.10 {
		t.Errorf("idle ladder cost ratio = %.4f, want ~1.0", ratio)
	}
}
