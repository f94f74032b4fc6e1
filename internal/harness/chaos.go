package harness

import (
	"fmt"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/native"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

// The chaos-storm suite is the native analogue of the faultstorm
// (faultrun.go): every §7.1 structure driven by the content-commutative
// differential op mix on host goroutines, with the native chaos plane
// injecting stalls, preemption bursts, spurious commit aborts and delayed
// wakeups, and the host watchdogs scanning for wedged stripes and commit
// stalls. Each cell verifies the structure invariants, replays its
// committed-op log through the sequential oracle, and compares its content
// fingerprint against a chaos-free twin of the same configuration —
// injections may perturb timing and abort counts, never committed state.

// ChaosRecord is the per-cell chaos block of the hastm-bench/9 JSON
// schema: the armed spec, the planned-schedule FNV-1a hash (a pure
// function of seed × thread id × per-thread transaction index, so it is
// byte-identical across runs of one configuration), and the per-kind
// planned/fired injection counts. Fired can lag planned: an injection
// planned for a commit point the attempt never reaches (a read-only
// commit has no write-back) lapses instead of firing.
type ChaosRecord struct {
	Spec string `json:"spec"`
	// ScheduleHash is the deterministic planned-schedule hash, rendered as
	// 16 hex digits so JSON consumers never round it through a float.
	ScheduleHash string            `json:"schedule_hash"`
	ScheduleLen  int               `json:"schedule_len"`
	Planned      map[string]uint64 `json:"planned"`
	Fired        map[string]uint64 `json:"fired"`
	// Violation is the host watchdog violation observed during the run, if
	// any (also surfaced as the cell error).
	Violation string `json:"violation,omitempty"`
}

// chaosRecord converts the native plane's report into the JSON block; nil
// in, nil out (chaos not armed).
func chaosRecord(rep *native.ChaosReport, health error) *ChaosRecord {
	if rep == nil {
		return nil
	}
	r := &ChaosRecord{
		Spec:         rep.Spec,
		ScheduleHash: fmt.Sprintf("%016x", rep.ScheduleHash),
		ScheduleLen:  rep.ScheduleLen,
		Planned:      rep.Planned,
		Fired:        rep.Fired,
	}
	if health != nil {
		r.Violation = health.Error()
	}
	return r
}

// ChaosStormReport is the outcome of one chaos-storm cell: what was
// injected, what committed, and whether the final structure content
// survived both the sequential oracle and the chaos-free-twin comparison.
type ChaosStormReport struct {
	Workload string
	Threads  int

	Committed int
	Chaos     *ChaosRecord
	// Baseline and Fingerprint are the content fingerprints of the
	// chaos-free twin and the chaos run; the diff mix is
	// content-commutative, so they must be equal.
	Baseline    uint64
	Fingerprint uint64

	Err string // "" = invariants, oracle and twin comparison all passed
}

// ChaosStormReport is a VerdictRow of the chaos-storm table. A cell that
// failed before its chaos run has no plane report: nothing planned, nothing
// fired, no hash.
func (ChaosStormReport) Header() string {
	return fmt.Sprintf("%-18s %9s %9s %-36s %16s  %s", "cell", "committed", "planned", "injected", "schedule-hash", "verdict")
}

func (r ChaosStormReport) Row() string {
	chaos := r.Chaos
	if chaos == nil {
		chaos = &ChaosRecord{ScheduleHash: "-"}
	}
	return fmt.Sprintf("%-18s %9d %9d %-36s %16s  %s", "native/"+r.Workload, r.Committed, chaos.ScheduleLen,
		countsString(chaos.Fired, "stall", "preempt", "abort", "wakedelay"), chaos.ScheduleHash, verdictString(r.Err))
}

func (r ChaosStormReport) Failure() string { return r.Err }

// runNativeDiff drives one native differential cell — chaos per spec, ladder
// and watchdogs armed, no warm-up — and returns its metrics, content
// fingerprint and committed-op count. The returned error covers watchdog
// trips, thread failures, invariant violations and oracle mismatches.
func runNativeDiff(workload string, threads int, o Options, spec native.ChaosSpec) (RunMetrics, uint64, int, error) {
	o = o.armed()
	o.Chaos = spec
	c, err := newNativeCell(nativeSpec{workload: workload, threads: threads, o: o})
	if err != nil {
		return RunMetrics{}, 0, 0, err
	}
	ds := c.structure()
	log := workloads.NewOpLog()
	cfg := workloads.DriverConfig{Ops: c.ops, UpdatePercent: 50, Seed: o.Seed}
	metrics, res := c.run(nil, func(th tm.Thread, _ int) error {
		return workloads.RunDiffThread(th, ds, cfg, log)
	})
	var fingerprint uint64
	err = res.verdict(func() error {
		rep, err := workloads.VerifyDiffOracle(ds, c.mem, func(m2 *mem.Memory) workloads.DataStructure {
			return buildStructure(workload, m2, o)
		}, o.Seed, log)
		fingerprint = rep.RunFingerprint
		return err
	})
	return metrics, fingerprint, log.Len(), err
}

// ChaosStormRun executes one chaos-storm cell: a chaos-free twin first
// (same seed, plane off) to pin the expected content fingerprint, then the
// chaos run proper. Verdict failures land in ChaosStormReport.Err (not the
// error return, which covers configuration problems), so a sweep collects
// every verdict.
func ChaosStormRun(workload string, threads int, o Options, spec native.ChaosSpec) (ChaosStormReport, RunMetrics, error) {
	rep := ChaosStormReport{Workload: workload, Threads: threads}
	// A description the runner would reject is a configuration error, not
	// a verdict.
	if _, err := (nativeSpec{workload: workload, threads: threads, o: o}).validate(); err != nil {
		return rep, RunMetrics{}, err
	}
	_, base, _, err := runNativeDiff(workload, threads, o, native.ChaosSpec{})
	if err != nil {
		rep.Err = fmt.Sprintf("chaos-free twin: %v", err)
		return rep, RunMetrics{}, nil
	}
	rep.Baseline = base

	metrics, fp, committed, err := runNativeDiff(workload, threads, o, spec)
	rep.Fingerprint = fp
	rep.Committed = committed
	rep.Chaos = metrics.Chaos
	if err != nil {
		rep.Err = err.Error()
		return rep, metrics, nil
	}
	if fp != base {
		rep.Err = fmt.Sprintf("content fingerprint %016x diverged from chaos-free twin %016x", fp, base)
	}
	return rep, metrics, nil
}

// ChaosStormPlan builds the chaos-storm sweep — every §7.1 structure under
// spec on `threads` goroutines — as a verdict plan (see verdictPlan).
func ChaosStormPlan(spec native.ChaosSpec, o Options, threads int) *Plan {
	p := verdictPlan("chaosstorm")
	for _, workload := range Workloads() {
		verdictCell(p, fmt.Sprintf("chaos/%s/%d", workload, threads), func() (ChaosStormReport, RunMetrics) {
			rep, m, err := ChaosStormRun(workload, threads, o, spec)
			if err != nil {
				rep.Err = err.Error()
			}
			return rep, m
		})
	}
	return p
}
