// Command traceanalyze analyses the per-transaction JSONL event trace
// written by `hastm-bench -trace`: abort-cause breakdowns, retry-depth
// histograms and per-cell commit/abort summaries — the analyses the paper's
// Figs 5–9 discussion performs on abort behaviour. Malformed input is a
// hard error (non-zero exit), so CI can use the tool to validate trace
// artifacts. The paper's Fig 13 workload analysis is `hastm-bench -fig
// fig13`.
//
// Usage:
//
//	traceanalyze trace.jsonl     # analyse a hastm-bench -trace file
//	traceanalyze -strict t.jsonl # also fail unless every begin is terminated
//	                             # and every irrevocable attempt commits
//	traceanalyze -top 5 t.jsonl  # show the 5 most abort-heavy cells
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"hastm.dev/hastm/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole command: exit status 2 for a command line that names no
// single trace file, 1 for a trace that does not pass.
func run(args []string) int {
	fs := flag.NewFlagSet("traceanalyze", flag.ExitOnError)
	top := fs.Int("top", 10, "cells shown in the per-cell summary (0 = all)")
	strict := fs.Bool("strict", false, "assert trace completeness (every begin reaches a terminal event)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "traceanalyze: want one trace file (the Fig 13 workload analysis is hastm-bench -fig fig13)")
		return 2
	}
	if *top < 0 {
		fmt.Fprintf(os.Stderr, "traceanalyze: -top: must not be negative, got %d\n", *top)
		return 2
	}
	if err := analyzeJSONL(fs.Arg(0), *top, *strict); err != nil {
		fmt.Fprintf(os.Stderr, "traceanalyze: %v\n", err)
		return 1
	}
	return 0
}

// cellStat accumulates one experiment cell's transaction outcomes.
type cellStat struct {
	begins, commits, aborts, retries, fallbacks, modes, errors uint64
	sheds, serializes                                          uint64
}

// strictChecker verifies trace completeness: every begin must reach
// exactly one terminal event (commit, abort, retry, error — or a
// fallback, which may also arrive with no begin pending when a hybrid
// scheme falls back after exhausting hardware attempts). State is
// tracked per (cell, core): a core runs one attempt at a time, and
// cells are independent machines.
//
// It also checks the irrevocability contract: an attempt marked by an
// irrevocable event holds the global token and has no rollback path, so
// its only legal terminals are commit and body error — an abort or a
// retry-wait afterwards means the engine revoked the irrevocable.
type strictChecker struct {
	// pending maps a (cell, core) stream to the line number of its
	// unterminated begin (0 = none pending).
	pending map[string]int
	// irrevocable maps a stream to the line of the irrevocable marker of
	// its in-flight attempt (0 = the attempt is revocable).
	irrevocable map[string]int
	violations  []string
}

func streamKey(cell string, core int) string { return fmt.Sprintf("%s\x00%d", cell, core) }

func (s *strictChecker) observe(ev *telemetry.TxnEvent, path string, lineNo int) {
	key := streamKey(ev.Cell, ev.Core)
	switch ev.Kind {
	case telemetry.EvBegin:
		if at := s.pending[key]; at != 0 {
			s.violations = append(s.violations,
				fmt.Sprintf("%s:%d: begin while the begin at line %d is unterminated (cell %q, core %d)",
					path, lineNo, at, ev.Cell, ev.Core))
		}
		s.pending[key] = lineNo
	case telemetry.EvCommit, telemetry.EvAbort, telemetry.EvRetry,
		telemetry.EvError, telemetry.EvWriterRestart:
		// EvWriterRestart terminates an MVCC snapshot attempt exactly like a
		// retry-wait terminates one: the attempt re-executes (pinned to
		// writer mode), so a begin must be pending — and an irrevocable
		// attempt can never restart (every other core is drained, so its
		// snapshot cannot go stale).
		if s.pending[key] == 0 {
			s.violations = append(s.violations,
				fmt.Sprintf("%s:%d: %s with no begin pending (cell %q, core %d)",
					path, lineNo, ev.Kind, ev.Cell, ev.Core))
		}
		if at := s.irrevocable[key]; at != 0 &&
			(ev.Kind == telemetry.EvAbort || ev.Kind == telemetry.EvRetry ||
				ev.Kind == telemetry.EvWriterRestart) {
			s.violations = append(s.violations,
				fmt.Sprintf("%s:%d: %s of the irrevocable attempt marked at line %d (cell %q, core %d)",
					path, lineNo, ev.Kind, at, ev.Cell, ev.Core))
		}
		s.pending[key] = 0
		s.irrevocable[key] = 0
	case telemetry.EvFallback:
		// Terminates a pending hardware attempt if there is one; an
		// attempts-exhausted fallback legitimately arrives without one.
		s.pending[key] = 0
	case telemetry.EvIrrevocable:
		if s.pending[key] == 0 {
			s.violations = append(s.violations,
				fmt.Sprintf("%s:%d: irrevocable marker with no begin pending (cell %q, core %d)",
					path, lineNo, ev.Cell, ev.Core))
		}
		s.irrevocable[key] = lineNo
	case telemetry.EvShed:
		// A shed request is turned away by admission control before any
		// attempt starts: it stands alone — no begin precedes it and no
		// fake abort follows (mirroring the body-error rule). A pending
		// begin here means the service shed mid-attempt, which it never
		// does.
		if at := s.pending[key]; at != 0 {
			s.violations = append(s.violations,
				fmt.Sprintf("%s:%d: shed while the begin at line %d is unterminated (cell %q, core %d)",
					path, lineNo, at, ev.Cell, ev.Core))
		}
	case telemetry.EvMode, telemetry.EvEscalate, telemetry.EvSerialize,
		telemetry.EvUpgrade, telemetry.EvDegrade, telemetry.EvValidate:
		// Informational; not part of the attempt life-cycle. (Escalation
		// is announced before the irrevocable attempt begins; serialize
		// announces that admission control forced the next transaction
		// through the irrevocable ladder — its begin follows; upgrade
		// announces an MVCC snapshot attempt switching to writer mode
		// mid-attempt — its own commit or abort still terminates it;
		// degrade announces a service core's graceful-degradation ladder
		// transition between requests — the shed requests themselves appear
		// as shed events; validate reports a read-set check inside an
		// attempt, whose outcome the attempt's own terminal carries.)
	}
}

func (s *strictChecker) finish(path string) {
	type dangling struct {
		key  string
		line int
	}
	var left []dangling
	for key, at := range s.pending {
		if at != 0 {
			left = append(left, dangling{key, at})
		}
	}
	sort.Slice(left, func(i, j int) bool { return left[i].line < left[j].line })
	for _, d := range left {
		cell, core, _ := strings.Cut(d.key, "\x00")
		s.violations = append(s.violations,
			fmt.Sprintf("%s:%d: begin never terminated (cell %q, core %s)", path, d.line, cell, core))
	}
}

// analyzeJSONL reads a hastm-bench -trace file and prints the abort-cause
// breakdown, the retry-depth histogram and per-cell summaries. Any line
// that is not a valid transaction event is an error. With strict set, it
// additionally runs the trace through a per-(cell, core) begin/terminal
// state machine and fails on any incomplete or unpaired attempt.
func analyzeJSONL(path string, top int, strict bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var (
		total      uint64
		kinds      = map[string]uint64{}
		abortCause = map[string]uint64{}
		// retryDepth[r] counts transactions that committed on attempt r.
		retryDepth = map[int]uint64{}
		maxDepth   int
		cells      = map[string]*cellStat{}
		cellOrder  []string
		checker    = &strictChecker{pending: map[string]int{}, irrevocable: map[string]int{}}
	)

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev telemetry.TxnEvent
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ev); err != nil {
			return fmt.Errorf("%s:%d: malformed event: %v", path, lineNo, err)
		}
		if !slices.Contains(telemetry.EventKinds, ev.Kind) {
			return fmt.Errorf("%s:%d: unknown event kind %q", path, lineNo, ev.Kind)
		}
		if ev.Retry < 0 {
			return fmt.Errorf("%s:%d: negative retry index %d", path, lineNo, ev.Retry)
		}
		if strict {
			checker.observe(&ev, path, lineNo)
		}

		total++
		kinds[ev.Kind]++
		cs := cells[ev.Cell]
		if cs == nil {
			cs = &cellStat{}
			cells[ev.Cell] = cs
			cellOrder = append(cellOrder, ev.Cell)
		}
		switch ev.Kind {
		case telemetry.EvBegin:
			cs.begins++
		case telemetry.EvCommit:
			cs.commits++
			retryDepth[ev.Retry]++
			if ev.Retry > maxDepth {
				maxDepth = ev.Retry
			}
		case telemetry.EvAbort:
			cs.aborts++
			cause := ev.Cause
			if cause == "" {
				cause = "(unspecified)"
			}
			abortCause[cause]++
		case telemetry.EvRetry:
			cs.retries++
		case telemetry.EvFallback:
			cs.fallbacks++
		case telemetry.EvMode:
			cs.modes++
		case telemetry.EvError:
			cs.errors++
		case telemetry.EvShed:
			cs.sheds++
		case telemetry.EvSerialize:
			cs.serializes++
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if total == 0 {
		return fmt.Errorf("%s: no events", path)
	}

	fmt.Printf("%s: %d events across %d cells\n\n", path, total, len(cells))

	fmt.Println("event kinds:")
	for _, k := range telemetry.EventKinds {
		if n := kinds[k]; n > 0 {
			fmt.Printf("  %-10s %8d\n", k, n)
		}
	}

	var aborts uint64
	for _, n := range abortCause {
		aborts += n
	}
	fmt.Println("\nabort causes:")
	if aborts == 0 {
		fmt.Println("  (no aborts)")
	} else {
		causes := make([]string, 0, len(abortCause))
		for c := range abortCause {
			causes = append(causes, c)
		}
		sort.Slice(causes, func(i, j int) bool {
			if abortCause[causes[i]] != abortCause[causes[j]] {
				return abortCause[causes[i]] > abortCause[causes[j]]
			}
			return causes[i] < causes[j]
		})
		for _, c := range causes {
			n := abortCause[c]
			fmt.Printf("  %-20s %8d  (%5.1f%%)\n", c, n, 100*float64(n)/float64(aborts))
		}
	}

	fmt.Println("\nretry depth at commit (0 = first attempt):")
	var commits uint64
	for _, n := range retryDepth {
		commits += n
	}
	if commits == 0 {
		fmt.Println("  (no commits)")
	}
	for d := 0; commits > 0 && d <= maxDepth; d++ {
		n := retryDepth[d]
		bar := strings.Repeat("#", int(50*float64(n)/float64(commits)+0.5))
		fmt.Printf("  %3d %8d  %s\n", d, n, bar)
	}

	fmt.Println("\nper-cell summary (most aborts first):")
	sort.SliceStable(cellOrder, func(i, j int) bool {
		return cells[cellOrder[i]].aborts > cells[cellOrder[j]].aborts
	})
	shown := cellOrder
	if top > 0 && len(shown) > top {
		shown = shown[:top]
	}
	fmt.Printf("  %-36s %8s %8s %8s %9s %6s\n", "cell", "commits", "aborts", "retries", "fallbacks", "shed")
	for _, name := range shown {
		cs := cells[name]
		fmt.Printf("  %-36s %8d %8d %8d %9d %6d\n", name, cs.commits, cs.aborts, cs.retries, cs.fallbacks, cs.sheds)
	}
	if len(shown) < len(cellOrder) {
		fmt.Printf("  ... %d more cells (-top 0 for all)\n", len(cellOrder)-len(shown))
	}

	if strict {
		checker.finish(path)
		if n := len(checker.violations); n > 0 {
			fmt.Println("\nstrict: trace completeness violations:")
			for _, v := range checker.violations {
				fmt.Printf("  %s\n", v)
			}
			return fmt.Errorf("strict: %d trace completeness violation(s)", n)
		}
		fmt.Println("\nstrict: ok — every begin reached a terminal event")
	}
	return nil
}
