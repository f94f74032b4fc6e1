package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// selfcheck is the repeatability evidence: two sets of N end-to-end runs of
// this binary per workload, run i of each set at seed cfg.seed+i, the sets
// interleaved so both see the same weather. For every workload and
// end-to-end metric it prints both medians, how much worse the second is,
// the spread of each set (inter-quartile range over median, by the rule the
// driver uses) and the bound. It fails when a spread other than setup_s's
// exceeds its bound or a second median is worse than the first by more
// than the bound; "steady" marks a spread below a third of the bound. The
// remedy for a failure is more repetitions per cell, never a wider bound.
func selfcheck(cfg config, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	runOne := func(workload string, seed uint64) (result, error) {
		args := []string{"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0", "-out", cfg.outDir}
		if cfg.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output() // waits for the child to end
		res, perr := lastLine(out)
		if perr != nil {
			return res, fmt.Errorf("%s seed %d: %v (exit: %v)", workload, seed, perr, err)
		}
		if err != nil || !res.Correct {
			return res, fmt.Errorf("%s seed %d: incorrect run, %d of %d operations failed (exit: %v)", workload, seed, res.Failed, res.Attempted, err)
		}
		return res, nil
	}
	code := 0
	fmt.Fprintf(stdout, "selfcheck: 2 sets x %d runs per workload, seeds %d..%d, %g s per run\n",
		cfg.selfcheck, cfg.seed+1, cfg.seed+uint64(cfg.selfcheck), cfg.seconds)
	fmt.Fprintf(stdout, "%-13s %-26s %14s %14s %9s %9s %9s %6s  %s\n",
		"workload", "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound", "verdict")
	for _, w := range workloadTable {
		if cfg.workload != "" && cfg.workload != w.Name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 1; i <= cfg.selfcheck; i++ {
			for s := range sets {
				res, err := runOne(w.Name, cfg.seed+uint64(i))
				if err != nil {
					fmt.Fprintln(stdout, "FAIL", err)
					code = 1
					continue
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		for _, d := range endToEnd {
			v := compareSets(d, sets[0][d.Name], sets[1][d.Name])
			if !v.ok {
				code = 1
			}
			fmt.Fprintf(stdout, "%-13s %-26s %14.6g %14.6g %+8.2f%% %8.2f%% %8.2f%% %5.0f%%  %s\n",
				w.Name, d.Name, v.medianA, v.medianB, 100*v.worse, 100*v.spreadA, 100*v.spreadB, 100*d.Bound, v.verdict)
		}
		// Every run made, in seed order, so a reader can tell what moves
		// with the seed (both sets agree) from what moves with the weather.
		for _, d := range endToEnd {
			fmt.Fprintf(stdout, "  runs %-13s %-26s A %.5g\n  runs %-13s %-26s B %.5g\n",
				w.Name, d.Name, sets[0][d.Name], w.Name, d.Name, sets[1][d.Name])
		}
	}
	return code
}

// verdict is one row of the selfcheck table.
type verdict struct {
	medianA, medianB, worse, spreadA, spreadB float64
	ok                                        bool
	verdict                                   string
}

// compareSets applies the driver's acceptance rule to two sets of runs of
// one metric.
func compareSets(d metricDef, a, b []float64) verdict {
	v := verdict{medianA: median(a), medianB: median(b), spreadA: spread(a), spreadB: spread(b)}
	v.worse = worseBy(v.medianA, v.medianB, d.Better)
	widest := max(v.spreadA, v.spreadB)
	switch {
	case len(a) == 0 || len(b) == 0:
		v.verdict = "FAIL: no runs"
	case !(v.worse <= d.Bound):
		v.verdict = "FAIL: second median worse than the bound"
	case d.Name != "setup_s" && !(widest <= d.Bound):
		v.verdict = "FAIL: spread wider than the bound"
	case widest <= d.Bound/3:
		v.ok, v.verdict = true, "ok, steady"
	default:
		v.ok, v.verdict = true, "ok"
	}
	return v
}

// lastLine parses the contract line a single-workload run ends with.
func lastLine(out []byte) (result, error) {
	var res result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, nil
}
