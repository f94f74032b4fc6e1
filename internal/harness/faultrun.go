package harness

import (
	"fmt"
	"strings"

	"hastm.dev/hastm/internal/faults"
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

// FaultReport is the outcome of one fault-injected conformance run: what
// was injected, what the run committed, and whether the final structure
// state survived the sequential-oracle check. Every field is derived from
// simulated state, so two runs of the same configuration produce
// DeepEqual reports regardless of host scheduling — the property the
// faultstorm determinism test asserts.
type FaultReport struct {
	Scheme   string
	Workload string
	Cores    int

	Committed    int               // operations that committed (and were logged)
	Injected     map[string]uint64 // fault counts by kind name
	Skipped      uint64            // due injections that found no target
	ScheduleLen  int
	ScheduleHash uint64

	RunFingerprint uint64
	Totals         telemetry.Block

	Err string // "" = invariants and oracle both passed
}

// FaultReport is a VerdictRow of the faultstorm table.
func (FaultReport) Header() string {
	return fmt.Sprintf("%-25s %9s %9s %-40s %16s  %s", "cell", "committed", "injected", "faults", "schedule-hash", "verdict")
}

func (r FaultReport) Row() string {
	return fmt.Sprintf("%-25s %9d %9d %-40s %016x  %s", r.Scheme+"/"+r.Workload, r.Committed, r.ScheduleLen,
		countsString(r.Injected, "suspend", "evict", "snoop", "htmabort"), r.ScheduleHash, verdictString(r.Err))
}

func (r FaultReport) Failure() string { return r.Err }

// verdictString renders a report's Err for tables.
func verdictString(err string) string {
	if err == "" {
		return "ok"
	}
	return "FAIL: " + err
}

// countsString renders the non-zero counts of the named kinds, in the order
// given (deterministic, unlike iterating the map).
func countsString(counts map[string]uint64, kinds ...string) string {
	var parts []string
	for _, k := range kinds {
		if n := counts[k]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, n))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// FaultSchemes returns the scheme matrix of the faultstorm suite: the
// lock baseline plus every TM scheme (software eager and deferred-update,
// MVCC, both HASTM modes, hardware, hybrid).
func FaultSchemes() []string {
	return []string{SchemeLock, SchemeSTM, SchemeLazy, SchemeMVCC, SchemeHASTM, SchemeCautious, SchemeHTM, SchemeHyTM}
}

// FaultedRun executes one scheme/workload configuration with the fault
// plane attached and every committed operation logged, then verifies the
// final structure state against its invariants and the sequential-oracle
// replay. Oracle and invariant failures are reported in FaultReport.Err
// (not as the error return, which covers configuration problems), so a
// sweep can collect all verdicts.
func FaultedRun(scheme, workload string, cores int, o Options, spec faults.Spec, updatePct int) (FaultReport, error) {
	rep := FaultReport{Scheme: scheme, Workload: workload, Cores: cores}
	c, err := newSimCell(simSpec{scheme: scheme, workload: workload, threads: cores, o: o, faults: &spec})
	if err != nil {
		return rep, err
	}
	ds := c.structure()
	log := workloads.NewOpLog()
	cfg := workloads.DriverConfig{Ops: c.ops, UpdatePercent: updatePct, Seed: o.Seed}
	_, res := c.run(warmKept, nil, func(_ *sim.Ctx, th tm.Thread, _ int) error {
		return workloads.RunThreadRecorded(th, ds, cfg, log)
	})

	rep.Committed = log.Len()
	rep.Injected = c.plane.Counts()
	rep.Skipped = c.plane.Skipped()
	rep.ScheduleLen = len(c.plane.Events())
	rep.ScheduleHash = c.plane.ScheduleHash()
	rep.Totals = c.m.Stats.Totals()
	if err := res.verdict(func() error {
		orep, err := workloads.VerifyOracle(ds, c.m.Mem,
			func(m2 *mem.Memory) workloads.DataStructure { return buildStructure(workload, m2, o) },
			o.Seed, log)
		rep.RunFingerprint = orep.RunFingerprint
		return err
	}); err != nil {
		rep.Err = err.Error()
	}
	return rep, nil
}

// FaultPlan builds the faultstorm sweep — every FaultSchemes scheme × the
// three §7.1 structures under spec — as a verdict plan (see verdictPlan).
func FaultPlan(spec faults.Spec, o Options, cores int) *Plan {
	p := verdictPlan("faultstorm")
	for _, scheme := range FaultSchemes() {
		for _, workload := range Workloads() {
			verdictCell(p, fmt.Sprintf("%s/%s/%d", scheme, workload, cores), func() (FaultReport, RunMetrics) {
				rep, err := FaultedRun(scheme, workload, cores, o, spec, 20)
				if err != nil {
					rep.Err = err.Error()
				}
				return rep, RunMetrics{}
			})
		}
	}
	return p
}
