package main

import (
	"fmt"
	"os"
	"slices"
	"strings"

	"hastm.dev/hastm/internal/faults"
	"hastm.dev/hastm/internal/harness"
	"hastm.dev/hastm/internal/spec"
	"hastm.dev/hastm/internal/telemetry"
)

// A suite is one thing hastm-bench can run. What differs between suites is
// this description; runSuite is the one path that validates, executes,
// renders and judges any of them.
type suite struct {
	name string
	// how to select the suite and what it does: its line in -h, -list and
	// README "Commands".
	how, help string
	// selectors are the flags that select the suite; none marks the suite a
	// backend runs when no selector is set.
	selectors []string
	backends  []string
	// threads is the largest thread count of any cell: the cores of a
	// verdict suite's cells, the goroutines of a host cell.
	threads int
	// honours lists the flags the suite acts on beyond commonFlags; any other
	// flag set on the command line is rejected by name.
	honours string
	// plan declares the cells and, for a suite that prints a verdict table,
	// the banner above it. It builds no machine, so a configuration it
	// rejects costs nothing.
	plan func(s *suite, c *config) (plans []*harness.Plan, banner string, err error)
	// render prints stdout for a suite that prints neither report tables nor
	// a verdict table; nil for the others.
	render func(c *config, cells []*harness.Cell)
}

// commonFlags are honoured by every suite (-trace is written by the figure
// and service suites on the simulator and accepted elsewhere, so one script
// can pass it to every suite), but -sched configures the simulated machine
// and is rejected with -backend native, which builds none.
const commonFlags = "quick ops seed j progress trace backend cpuprofile memprofile sched"

// suites is the table, in selection order: the first row selected by a set
// flag and running on the backend wins, and a backend's default row is
// reached only when no selector is set.
var suites = []suite{
	{
		name: "service", how: "-service", selectors: []string{"service"}, backends: []string{"sim", "native"},
		threads: harness.ServiceCores, honours: "service json chaos",
		help: "open-loop bank service: latency percentiles, goodput and shed counts over offered load and key skew, every cell oracle-replayed",
		plan: planService,
	},
	{
		name: "faultstorm", how: "-faults SPEC", selectors: []string{"faults"}, backends: []string{"sim"},
		threads: 4, honours: "faults",
		help: "every scheme × structure under seeded suspensions, evictions, snoops and spurious HTM aborts, checked against the sequential oracle",
		plan: planFaultstorm,
	},
	{
		name: "chaosstorm", how: "-backend native -chaos SPEC", selectors: []string{"chaos"}, backends: []string{"native"},
		threads: 8, honours: "chaos json",
		help: "every structure on host goroutines under injected stalls, preemptions, commit aborts and wake delays, checked against the oracle and a chaos-free twin",
		plan: planChaosstorm,
	},
	{
		name: "adversarial", how: "-adversarial SET", selectors: []string{"adversarial"}, backends: []string{"sim"},
		threads: 4, honours: "adversarial no-ladder",
		help: "livelock and starvation cells (all, storm or starve) that finish only under the irrevocable ladder; -no-ladder must trip the watchdog",
		plan: planAdversarial,
	},
	{
		name: "cell", how: "-cell SCHEME/WORKLOAD/CORES", selectors: []string{"cell"}, backends: []string{"sim"},
		honours: "cell events",
		help:    "one figure cell at the figures' sizes: cycle breakdown, abort causes, TM counters, cache; -events N prints its first N measured-phase trace events",
		plan:    planCell, render: printCell,
	},
	{
		name: "native", how: "-backend native", backends: []string{"native"},
		threads: harness.NativeThreadCounts[len(harness.NativeThreadCounts)-1], honours: "json",
		help: "every structure swept over 1–32 host goroutines on real memory: committed txns/s, host-dependent",
		plan: func(_ *suite, c *config) ([]*harness.Plan, string, error) {
			return []*harness.Plan{harness.NativePlan(c.o, harness.NativeThreadCounts)}, "", nil
		},
	},
	{
		name: "figures", how: "(default)", backends: []string{"sim"},
		honours: "fig ext json",
		help:    "the paper's figures 11–22; -fig ID runs one experiment, -ext adds the ext-* experiments",
		plan:    planFigures,
	},
}

// pick returns the suite the command line selects: the first row that a set
// flag selects (or that needs none) and that runs on the backend. Each
// backend's default row closes the table, so there always is one; a selector
// of a suite the backend cannot run lands there and is rejected by name.
func pick(c *config) *suite {
	return &suites[slices.IndexFunc(suites, func(s suite) bool {
		selected := len(s.selectors) == 0 || slices.ContainsFunc(s.selectors, c.has)
		return selected && slices.Contains(s.backends, c.backend)
	})]
}

// validate rejects, by name, every set flag the suite cannot honour.
func (s *suite) validate(c *config) error {
	honoured := strings.Fields(commonFlags + " " + s.honours)
	for _, name := range c.set {
		switch {
		case c.backend == "native" && name == "sched":
			return flagErr(name, "configures the simulated machine, and -backend native builds none")
		case !slices.Contains(honoured, name):
			return flagErr(name, "not honoured by the %s suite on -backend %s", s.name, c.backend)
		}
	}
	return nil
}

func planFigures(_ *suite, c *config) (plans []*harness.Plan, _ string, err error) {
	specs := harness.All()
	if c.ext {
		specs = append(specs, harness.Extensions()...)
	}
	if c.fig != "" {
		s, ok := harness.ByID(strings.ToLower(c.fig))
		if !ok {
			return nil, "", flagErr("fig", "unknown experiment %q (try -list)", c.fig)
		}
		specs = []harness.Spec{s}
	}
	for _, s := range specs {
		plans = append(plans, s.Plan(c.o))
	}
	return plans, "", nil
}

func planService(_ *suite, c *config) ([]*harness.Plan, string, error) {
	switch {
	case c.backend == "native":
		// c.o.Chaos flows into the cells: the degradation ladder and the
		// watchdogs run with the plane armed.
		return []*harness.Plan{harness.ServiceNativePlan(c.o)}, "", nil
	case c.has("chaos"):
		return nil, "", flagErr("chaos", "the service suite arms the chaos plane with -backend native only")
	}
	return []*harness.Plan{harness.ServicePlan(c.o)}, "", nil
}

func planFaultstorm(s *suite, c *config) ([]*harness.Plan, string, error) {
	fs, err := faults.ParseSpec(c.faults)
	if err != nil {
		return nil, "", flagErr("faults", "%v", err)
	}
	plan := harness.FaultPlan(fs, c.o, s.threads)
	return []*harness.Plan{plan}, fmt.Sprintf("faultstorm: %s (cores %d, ops %d, workload seed %d)", fs, s.threads, c.o.Ops, c.o.Seed), nil
}

func planChaosstorm(s *suite, c *config) ([]*harness.Plan, string, error) {
	plan := harness.ChaosStormPlan(c.o.Chaos, c.o, s.threads)
	return []*harness.Plan{plan}, fmt.Sprintf("chaosstorm: native tl2, %s (threads %d, ops %d, seed %d)",
		c.o.Chaos, s.threads, c.o.Ops, c.o.Seed), nil
}

func planAdversarial(s *suite, c *config) ([]*harness.Plan, string, error) {
	filter, ok := map[string]string{"all": "", "storm": harness.AdversarialStorm, "starve": harness.AdversarialStarve}[c.adversarial]
	if !ok {
		return nil, "", flagErr("adversarial", "%v", spec.Unknown("cell set", c.adversarial, "all", "storm", "starve"))
	}
	mode := fmt.Sprintf("ladder armed (budget %d)", harness.AdversarialRetryBudget)
	if c.noLadder {
		mode = "ladder disarmed"
	}
	plan := harness.ProgressPlan(c.o, s.threads, !c.noLadder, filter)
	return []*harness.Plan{plan}, fmt.Sprintf("adversarial: %s, cores %d, cycle budget %d, watchdog window %d",
		mode, s.threads, harness.AdversarialCycleBudget, harness.AdversarialWatchdogWindow), nil
}

func planCell(_ *suite, c *config) ([]*harness.Plan, string, error) {
	plan, err := harness.CellPlan(c.cell, c.o)
	if err != nil {
		return nil, "", flagErr("cell", "%v", err)
	}
	return []*harness.Plan{plan}, "", nil
}

// printCell prints the cell's report: its totals, cycle breakdown, abort
// causes and TM counters, the first -events trace events, and the cache
// statistics. A failed cell prints nothing; its diagnosis goes to stderr.
func printCell(c *config, cells []*harness.Cell) {
	cell := cells[0]
	if cell.Err != "" {
		return
	}
	m, label := cell.Metrics(), strings.Split(cell.Label, "/")
	fmt.Printf("scheme=%s workload=%s cores=%s ops=%d updates=%d%%\n",
		label[0], label[1], label[2], c.o.Ops, harness.StructureUpdatePct)
	fmt.Printf("wall cycles: %d   (%.1f cycles/op)\n", m.WallCycles, float64(m.WallCycles)/float64(c.o.Ops))
	fmt.Printf("commits: %d  aborts: %d  retries waited: %d\n",
		m.Stats.Commits(), m.Stats.TotalAborts(), m.Stats.Count(telemetry.Retries))

	fmt.Println("\ncycle breakdown:")
	for _, s := range m.Stats.Breakdown() {
		fmt.Printf("  %-10s %8.1f%%  (%d cycles)\n", s.Category, s.Share*100, s.Cycles)
	}

	fmt.Println("\nabort causes:")
	for _, cause := range telemetry.AbortCauses() {
		if n := m.Stats.Aborts(cause); n > 0 {
			fmt.Printf("  %-20s %d\n", cause, n)
		}
	}

	fmt.Println("\nTM event counters (summed over cores):")
	// Each label is the counter's registered name, spaces for underscores.
	for _, ctr := range []telemetry.Counter{telemetry.FilteredReads, telemetry.UnfilteredReads, telemetry.ReadsLogged,
		telemetry.ReadLogsSkipped, telemetry.FastValidations, telemetry.FullValidations,
		telemetry.AggressiveCommits, telemetry.CautiousCommits} {
		fmt.Printf("  %-19s %d\n", strings.ReplaceAll(ctr.String(), "_", " ")+":", m.Stats.Count(ctr))
	}
	fmt.Printf("  hytm sw fallbacks:  %d\n", m.Stats.Count(telemetry.HTMFallbacks))

	if c.events > 0 && m.TxnTrace != nil {
		fmt.Printf("\nfirst %d trace events:\n", c.events)
		m.TxnTrace.Render(os.Stdout, c.events)
	}

	h := m.CacheStats
	fmt.Println("\ncache:")
	fmt.Printf("  L1 hits/misses: %d/%d   L2 hits/misses: %d/%d\n", h.L1Hits, h.L1Misses, h.L2Hits, h.L2Misses)
	fmt.Printf("  invalidations: %d  back-invalidations: %d  evictions: %d  marked drops: %d  prefetch fills: %d\n",
		h.Invalidations, h.BackInvalidations, h.Evictions, h.MarkedDrops, h.PrefetchFills)
}
