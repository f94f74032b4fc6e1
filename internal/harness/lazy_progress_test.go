package harness

import (
	"strings"
	"testing"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// With the ladder armed, the deferred-update family rides it exactly like
// the eager schemes: every adversarial cell completes, verifies, and
// actually escalated.
func TestLazyFamilyAdversarialLadderCompletes(t *testing.T) {
	o := AdversarialOptions(QuickOptions(), true)
	for _, scheme := range []string{SchemeLazy, SchemeMVCC} {
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
		}
	}
}

// Without the ladder, the deferred-update family splits the adversarial
// cells in a way the eager schemes don't — which is why these schemes are
// in ProgressPlanSchemes but not AdversarialSchemes:
//
//   - the writer storm COMPLETES: a lazy writer holds record locks only
//     inside its finite three-phase commit, so the storm's long transaction
//     bodies overlap harmlessly and the cell drains without help;
//   - the starvation cell still TRIPS: the starved "reader" ends its scan
//     by storing the published sum, so under mvcc it must leave snapshot
//     mode and fight the writers like any other writer.
//
// TestMVCCStarvationImmune below shows the flip side: a genuinely
// read-only scan cannot be starved at all.
func TestLazyFamilyWithoutLadder(t *testing.T) {
	o := AdversarialOptions(QuickOptions(), false)
	for _, scheme := range []string{SchemeLazy, SchemeMVCC} {
		storm := ProgressRun(scheme, AdversarialStorm, 4, o, nil)
		if storm.Err != "" {
			t.Errorf("%s/%s without ladder: %s — finite commit sections should drain the storm", scheme, AdversarialStorm, storm.Err)
		}
		starve := ProgressRun(scheme, AdversarialStarve, 4, o, nil)
		if starve.Err == "" {
			t.Errorf("%s/%s without ladder completed — the writing reader should starve", scheme, AdversarialStarve)
		} else if !strings.Contains(starve.Err, "ProgressViolation") {
			t.Errorf("%s/%s: failed without a ProgressViolation: %s", scheme, AdversarialStarve, starve.Err)
		}
	}
}

// TestMVCCStarvationImmune pins the property the MVCC variant exists for:
// a read-only transaction cannot be starved, full stop — no ladder, no
// retry budget, writers storming underneath it. The cell is the
// starvation shape with the one honest change: the reader's padded scan
// is a pure read-only transaction (the publish happens in a separate
// store-only transaction afterwards). The scan must commit on its first
// attempt via the snapshot path; under the eager scheme the same scan
// aborts until the watchdog trips (TestAdversarialWithoutLadderTrips).
func TestMVCCStarvationImmune(t *testing.T) {
	const cores = 4
	o := AdversarialOptions(QuickOptions(), false) // deliberately disarmed
	machine := machineFor(cores, o, nil)
	sys := buildScheme(SchemeMVCC, machine, cores, o)

	writers := cores - 1
	base := machine.Mem.Alloc(uint64(writers)*mem.LineSize, mem.LineSize)
	out := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	done := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	addr := func(i int) uint64 { return base + uint64(i)*mem.LineSize }

	scanAttempts := 0
	progs := make([]sim.Program, cores)
	progs[0] = func(c *sim.Ctx) {
		th := sys.Thread(c)
		var sum uint64
		if err := th.Atomic(func(tx tm.Txn) error { // the read-only scan
			scanAttempts++
			sum = 0
			for i := 0; i < writers; i++ {
				sum += tx.Load(addr(i))
				tx.Exec(starvePad)
			}
			return nil
		}); err != nil {
			panic(err)
		}
		if err := th.Atomic(func(tx tm.Txn) error { // store-only publish
			tx.Store(out, sum)
			tx.Store(done, 1)
			return nil
		}); err != nil {
			panic(err)
		}
	}
	for w := 1; w < cores; w++ {
		a := addr(w - 1)
		progs[w] = func(c *sim.Ctx) {
			th := sys.Thread(c)
			for {
				stop := false
				if err := th.Atomic(func(tx tm.Txn) error {
					if tx.Load(done) != 0 {
						stop = true
						return nil
					}
					v := tx.Load(a)
					tx.Exec(starvePad)
					tx.Store(a, v+1)
					return nil
				}); err != nil {
					panic(err)
				}
				if stop {
					return
				}
			}
		}
	}
	machine.Run(progs...)
	if err := machine.CheckHealth(); err != nil {
		t.Fatalf("disarmed mvcc starvation cell did not complete: %v", err)
	}
	if scanAttempts != 1 {
		t.Errorf("read-only scan took %d attempts, want 1 — the snapshot path must not retry", scanAttempts)
	}
	if got := machine.Stats.Block(0).TotalAborts(); got != 0 {
		t.Errorf("reader core aborted %d times, want 0", got)
	}
	tot := machine.Stats.Totals()
	if got := tot.Count(telemetry.SnapshotAborts); got != 0 {
		t.Errorf("snapshot_aborts = %d, want 0", got)
	}
	if got := tot.Count(telemetry.SnapshotReads); got == 0 {
		t.Error("snapshot_reads = 0 — the scan never took the snapshot path")
	}
	if got := machine.Mem.Load(done); got != 1 {
		t.Errorf("done flag = %d, want 1", got)
	}
}

// The issue's acceptance assertion, harness-wide: a read-only MVCC run of
// every figure structure finishes with zero aborts of any cause — the
// read-validation aborts the eager schemes pay on lookups simply do not
// exist on the snapshot path.
func TestMVCCReadOnlyZeroAborts(t *testing.T) {
	for _, wl := range []string{WorkloadHash, WorkloadBST, WorkloadBTree} {
		m, err := RunOne(SchemeMVCC, wl, 4, QuickOptions(), 0)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if got := m.Stats.TotalAborts(); got != 0 {
			t.Errorf("%s: read-only mvcc run aborted %d times, want 0", wl, got)
		}
		tot := m.Stats.Totals()
		if got := tot.Count(telemetry.SnapshotAborts); got != 0 {
			t.Errorf("%s: snapshot_aborts = %d, want 0", wl, got)
		}
		if got := tot.Count(telemetry.SnapshotReads); got == 0 {
			t.Errorf("%s: snapshot_reads = 0 — lookups never used the snapshot path", wl)
		}
	}
}
