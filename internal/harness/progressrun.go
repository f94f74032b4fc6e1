package harness

import (
	"fmt"
	"strings"
	"time"

	"hastm.dev/hastm/internal/faults"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

// Adversarial workload names (the progress-guarantee suite).
const (
	AdversarialStorm  = "writer-storm"
	AdversarialStarve = "starvation"
)

// AdversarialWorkloads lists the progress suite's cells.
func AdversarialWorkloads() []string { return []string{AdversarialStorm, AdversarialStarve} }

// AdversarialSchemes returns the schemes the progress suite exercises:
// each has its own descent ladder (STM retries -> irrevocable; HASTM
// aggressive -> cautious -> irrevocable; HyTM hardware -> STM ->
// irrevocable).
func AdversarialSchemes() []string { return []string{SchemeSTM, SchemeHASTM, SchemeHyTM} }

// ProgressPlanSchemes returns the schemes the adversarial CLI sweep (and
// its byte-identity gate) runs: AdversarialSchemes plus the deferred-update
// family. Lazy and mvcc ride the same ladder when armed, but they are NOT
// in AdversarialSchemes because the disarmed pathologies are weaker against
// them by design — lazy holds locks only inside its finite commit section,
// and an mvcc snapshot reader cannot be starved at all (the property
// TestMVCCStarvationImmune pins down).
func ProgressPlanSchemes() []string {
	return append(AdversarialSchemes(), SchemeLazy, SchemeMVCC)
}

// Adversarial cell sizing. Fixed (not Options-scaled): the cells exist to
// demonstrate pathologies, and the pathologies need a specific shape —
// few highly contended lines and wide conflict windows.
const (
	stormLines = 4     // contended cache lines
	stormOps   = 6     // transactions each core must commit
	stormPad   = 12000 // cycles between accesses inside a storm transaction
	starvePad  = 2000  // cycles between the reader's loads / inside writer RMWs

	// AdversarialRetryBudget is the ladder budget the suite arms: small,
	// so escalation happens within a few aborts and the cells finish
	// quickly once serialised.
	AdversarialRetryBudget = 1
	// AdversarialCycleBudget bounds each adversarial run. It is sized with
	// a wide margin above what the ladder-enabled runs need and below what
	// the ladder-disabled storm burns, so "no ladder => budget exceeded"
	// is a stable, deterministic outcome.
	AdversarialCycleBudget = 8_000_000
	// AdversarialWatchdogWindow is the commit-progress window for the
	// suite: generous against legitimate dry spells (token waits), tight
	// enough to catch a full commit stall well before the cycle budget.
	AdversarialWatchdogWindow = 4_000_000
)

// AdversarialOptions derives the progress suite's run configuration from a
// base Options (which contributes the seed and the scheduler switch).
// ladder arms the escalation ladder; the watchdogs are always on — the
// suite's failure mode without them is a literal hang.
func AdversarialOptions(base Options, ladder bool) Options {
	o := base
	o.WatchdogWindow = AdversarialWatchdogWindow
	o.CycleBudget = AdversarialCycleBudget
	if o.StallTimeout == 0 {
		o.StallTimeout = 30 * time.Second
	}
	o.RetryBudget = 0
	if ladder {
		o.RetryBudget = AdversarialRetryBudget
	}
	return o
}

// ProgressReport is the outcome of one adversarial progress cell. Every
// field is derived from simulated state, so reports are DeepEqual across
// -j levels and schedulers — the property the progress conformance test
// asserts.
type ProgressReport struct {
	Scheme   string
	Workload string
	Cores    int
	Ladder   bool

	WallCycles         uint64
	Commits            uint64
	Escalations        uint64
	IrrevocableEntries uint64
	IrrevocableCycles  uint64

	// Err is the failure ("" = the run completed and verified): a rendered
	// watchdog violation, a contained core panic, or a structure-invariant
	// failure. Detail carries the full multi-line diagnosis when one exists.
	Err    string
	Detail string
}

// ProgressReport is a VerdictRow of the adversarial table; its failure is the
// full diagnosis when the run left one.
func (ProgressReport) Header() string {
	return fmt.Sprintf("%-22s %12s %9s %6s %7s %12s  %s", "cell", "cycles", "commits", "esc", "irrev", "irrev-cyc", "verdict")
}

func (r ProgressReport) Row() string {
	return fmt.Sprintf("%-22s %12d %9d %6d %7d %12d  %s", r.Scheme+"/"+r.Workload, r.WallCycles, r.Commits,
		r.Escalations, r.IrrevocableEntries, r.IrrevocableCycles, verdictString(r.Err))
}

func (r ProgressReport) Failure() string {
	if r.Detail != "" {
		return r.Detail
	}
	return r.Err
}

// progressTraceCap sizes the event trace every adversarial cell carries
// unless -trace already attached one, so a violation report shows the last
// events before the stall — the "what was everyone doing" evidence.
const progressTraceCap = 1 << 15

// ProgressRun executes one adversarial cell: the machine carries the
// watchdogs from o, the workload's asymmetric per-thread programs run with
// no warm-up, and the structure invariant is the cell's check. Watchdog
// trips and contained panics land in the report, never as a hang or a raw
// panic. A non-nil spec attaches the fault-injection plane: the escalation
// ladder must keep its guarantees while cores are suspended, lines evicted
// and snoops injected underneath it.
func ProgressRun(scheme, workload string, cores int, o Options, spec *faults.Spec) ProgressReport {
	rep := ProgressReport{
		Scheme: scheme, Workload: workload, Cores: cores,
		Ladder: o.RetryBudget > 0,
	}
	if o.TxnTraceMax == 0 {
		o.TxnTraceMax = progressTraceCap
	}
	c, err := newSimCell(simSpec{scheme: scheme, threads: cores, o: o, faults: spec})
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	var measure simThreadFunc
	var verify func() error
	switch workload {
	case AdversarialStorm:
		st := workloads.NewWriterStorm(c.m.Mem, stormLines, stormOps, stormPad)
		measure = func(_ *sim.Ctx, th tm.Thread, id int) error { return st.RunThread(th, id) }
		verify = func() error { return st.Verify(c.m.Mem, cores) }
	case AdversarialStarve:
		sv := workloads.NewStarvation(c.m.Mem, cores-1, starvePad)
		measure = func(_ *sim.Ctx, th tm.Thread, id int) error {
			if id == 0 {
				return sv.RunReader(th)
			}
			return sv.RunWriter(th, id)
		}
		verify = func() error { return sv.Verify(c.m.Mem) }
	default:
		rep.Err = fmt.Sprintf("unknown adversarial workload %q", workload)
		return rep
	}

	metrics, res := c.run(warmKept, nil, measure)
	rep.WallCycles = metrics.WallCycles
	rep.Escalations = metrics.Stats.Count(telemetry.Escalations)
	rep.IrrevocableEntries = metrics.Stats.Count(telemetry.IrrevocableEntries)
	rep.IrrevocableCycles = metrics.Stats.Count(telemetry.IrrevocableCyclesHeld)
	rep.Commits = metrics.Stats.Commits()
	if err := res.verdict(verify); err != nil {
		rep.Err = err.Error()
		if v := c.m.Violation(); v != nil {
			rep.Detail = v.String()
		} else if fs := c.m.Faults(); len(fs) > 0 {
			rep.Detail = renderFault(fs[0])
		}
	}
	return rep
}

func renderFault(f sim.CoreFault) string {
	var b strings.Builder
	f.Render(&b)
	return b.String()
}

// ProgressPlan builds the adversarial sweep — every ProgressPlanSchemes
// scheme × the adversarial workloads (or just the one named by filter) —
// as a verdict plan (see verdictPlan).
func ProgressPlan(base Options, cores int, ladder bool, filter string) *Plan {
	o := AdversarialOptions(base, ladder)
	p := verdictPlan("adversarial")
	for _, scheme := range ProgressPlanSchemes() {
		for _, workload := range AdversarialWorkloads() {
			if filter != "" && workload != filter {
				continue
			}
			verdictCell(p, fmt.Sprintf("%s/%s/%d", scheme, workload, cores), func() (ProgressReport, RunMetrics) {
				rep := ProgressRun(scheme, workload, cores, o, nil)
				return rep, RunMetrics{WallCycles: rep.WallCycles}
			})
		}
	}
	return p
}
