// Command tmsim runs one workload under one concurrency-control scheme on
// the simulated machine and prints timing, the per-category cycle
// breakdown and the TM event counters — the tool for poking at a single
// configuration that the figure harness aggregates over.
//
// Usage:
//
//	tmsim -scheme hastm -workload btree -cores 4 -ops 2048
//	tmsim -scheme stm -workload hashtable -breakdown
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hastm.dev/hastm/internal/harness"
	"hastm.dev/hastm/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: exit status 2, with one "tmsim:" line on stderr,
// for a flag value out of range or a configuration the harness rejects
// (unknown -scheme or -workload, -ops that cannot be split over -cores).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scheme   = fs.String("scheme", "hastm", strings.Join(harness.Schemes(), "|"))
		workload = fs.String("workload", "btree", strings.Join(harness.StructureNames(), "|"))
		cores    = fs.Int("cores", 1, "number of cores")
		ops      = fs.Int("ops", 2048, "total operations (split across cores)")
		updates  = fs.Int("updates", 20, "percent of operations that mutate")
		seed     = fs.Uint64("seed", 1, "deterministic seed")
		keys     = fs.Uint64("keys", 8192, "initial tree keys / half the hash key space")
		trace    = fs.Int("trace", 0, "print the first N trace events of the measured phase")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	reject := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "tmsim: "+format+"\n", a...)
		return 2
	}
	// What the harness cannot name is named here; the rest (scheme, workload,
	// cores, the ops split) is the harness's to reject.
	switch {
	case fs.NArg() > 0:
		return reject("unexpected argument %q", fs.Arg(0))
	case *keys < 1:
		return reject("-keys: must be at least 1, got %d", *keys)
	case *updates < 0 || *updates > 100:
		return reject("-updates: a percentage, 0 to 100, got %d", *updates)
	case *trace < 0:
		return reject("-trace: must not be negative, got %d", *trace)
	}

	m, err := harness.RunOne(*scheme, *workload, *cores, harness.Options{
		Ops:       *ops,
		HashSlots: *keys,
		TreeKeys:  *keys,
		Seed:      *seed,
		// Slack over N: the buffer fills in append order but renders in
		// canonical (cycle, core) order.
		TxnTraceMax: *trace * 16,
	}, *updates)
	if err != nil {
		return reject("%v", err)
	}

	fmt.Fprintf(stdout, "scheme=%s workload=%s cores=%d ops=%d updates=%d%%\n",
		*scheme, *workload, *cores, *ops, *updates)
	fmt.Fprintf(stdout, "wall cycles: %d   (%.1f cycles/op)\n",
		m.WallCycles, float64(m.WallCycles)/float64(*ops))
	fmt.Fprintf(stdout, "commits: %d  aborts: %d  retries waited: %d\n",
		m.Stats.Commits(), m.Stats.TotalAborts(), m.Stats.Count(telemetry.Retries))

	fmt.Fprintln(stdout, "\ncycle breakdown:")
	for _, s := range m.Stats.Breakdown() {
		fmt.Fprintf(stdout, "  %-10s %8.1f%%  (%d cycles)\n", s.Category, s.Share*100, s.Cycles)
	}

	fmt.Fprintln(stdout, "\nabort causes:")
	for _, c := range telemetry.AbortCauses() {
		if n := m.Stats.Aborts(c); n > 0 {
			fmt.Fprintf(stdout, "  %-20s %d\n", c, n)
		}
	}

	fmt.Fprintln(stdout, "\nTM event counters (summed over cores):")
	// Each label is the counter's registered name, spaces for underscores.
	for _, c := range []telemetry.Counter{telemetry.FilteredReads, telemetry.UnfilteredReads, telemetry.ReadsLogged,
		telemetry.ReadLogsSkipped, telemetry.FastValidations, telemetry.FullValidations,
		telemetry.AggressiveCommits, telemetry.CautiousCommits} {
		fmt.Fprintf(stdout, "  %-19s %d\n", strings.ReplaceAll(c.String(), "_", " ")+":", m.Stats.Count(c))
	}
	fmt.Fprintf(stdout, "  hytm sw fallbacks:  %d\n", m.Stats.Count(telemetry.HTMFallbacks))

	if m.TxnTrace != nil {
		fmt.Fprintf(stdout, "\nfirst %d trace events:\n", *trace)
		m.TxnTrace.Render(stdout, *trace)
	}

	h := m.CacheStats
	fmt.Fprintln(stdout, "\ncache:")
	fmt.Fprintf(stdout, "  L1 hits/misses: %d/%d   L2 hits/misses: %d/%d\n", h.L1Hits, h.L1Misses, h.L2Hits, h.L2Misses)
	fmt.Fprintf(stdout, "  invalidations: %d  back-invalidations: %d  evictions: %d  marked drops: %d  prefetch fills: %d\n",
		h.Invalidations, h.BackInvalidations, h.Evictions, h.MarkedDrops, h.PrefetchFills)
	return 0
}
