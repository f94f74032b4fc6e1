// Command benchgate holds same-run ratios over `go test -bench` output. CI
// runs the scheduler and directory benchmarks with -count=5, and each
//
//	-scale from:to:max
//
// requires the median ns/op of benchmark `to` to stay within max × the median
// of benchmark `from` (names match by "/"-boundary suffix, so the package
// prefix can be left out). Both medians come from one machine and one
// invocation, so the gate is host-independent: it is how CI keeps per-op
// simulator cost at 256 cores within 2× of 16 cores without baking one
// machine's absolute numbers into the repository.
//
//	go test -run '^$' -bench 'SimOps|DirCoherence' -count=5 ./internal/sim > bench.txt
//	benchgate -scale SimOpsScale/16core:SimOpsScale/256core:2.0 bench.txt   # or - for stdin
//
// Exit status 1 when a ratio is exceeded, 2 when the input cannot be used.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var scales scaleFlags
	flag.Var(&scales, "scale", "gate `from:to:max`: ns/op of `to` must be <= max * ns/op of `from` (repeatable; suffix-matches benchmark names)")
	flag.Parse()
	if flag.NArg() != 1 || len(scales) == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchgate -scale from:to:max [-scale ...] bench.txt|-")
		os.Exit(2)
	}
	var in io.Reader = os.Stdin
	if flag.Arg(0) != "-" {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	medians, err := parseBench(in)
	if err == nil && len(medians) == 0 {
		err = fmt.Errorf("no benchmark results in input")
	}
	if err != nil {
		fatal(err)
	}
	if err := checkScales(scales, medians); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("benchgate: PASS")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
	os.Exit(2)
}

// scaleGate is one -scale from:to:max triple.
type scaleGate struct {
	from, to string
	max      float64
}

// scaleFlags collects repeated -scale flags.
type scaleFlags []scaleGate

func (s *scaleFlags) String() string { return fmt.Sprint(*s) }

func (s *scaleFlags) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" {
		return fmt.Errorf("want from:to:max, got %q", v)
	}
	max, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || max <= 0 {
		return fmt.Errorf("bad max ratio in %q", v)
	}
	*s = append(*s, scaleGate{from: parts[0], to: parts[1], max: max})
	return nil
}

// findBench resolves a -scale benchmark name against the parsed keys: an
// exact key, or a unique "/"-boundary suffix of one ("SimOpsScale/16core"
// matches "internal/sim/SimOpsScale/16core").
func findBench(name string, medians map[string]float64) (string, error) {
	if _, ok := medians[name]; ok {
		return name, nil
	}
	var hits []string
	for k := range medians {
		if strings.HasSuffix(k, "/"+name) {
			hits = append(hits, k)
		}
	}
	sort.Strings(hits)
	switch len(hits) {
	case 0:
		return "", fmt.Errorf("benchmark %q not found in bench output", name)
	case 1:
		return hits[0], nil
	default:
		return "", fmt.Errorf("benchmark %q is ambiguous: matches %s", name, strings.Join(hits, ", "))
	}
}

// checkScales enforces the gates: ns/op(to) within max × ns/op(from).
func checkScales(gates scaleFlags, medians map[string]float64) error {
	var problems []string
	for _, g := range gates {
		from, err := findBench(g.from, medians)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		to, err := findBench(g.to, medians)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		ratio := medians[to] / medians[from]
		verdict := "ok"
		if ratio > g.max {
			verdict = "FAIL"
			problems = append(problems, fmt.Sprintf("scale gate %s -> %s: ratio %.3f exceeds %.2f", from, to, ratio, g.max))
		}
		fmt.Printf("scale %-60s %8.1f -> %8.1f ns/op  ratio %.3f (limit %.2f) %s\n",
			from+" -> "+to, medians[from], medians[to], ratio, g.max, verdict)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return nil
}

// benchLine matches `BenchmarkName[-P]  iters  X ns/op …`.
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+(\S+) ns/op`)

// parseBench reads `go test -bench` text output and returns each benchmark's
// median ns/op over its repetitions, keyed "pkgsuffix/Name" (e.g.
// "internal/sim/SimOps/Load/1core").
func parseBench(r io.Reader) (map[string]float64, error) {
	samples := map[string][]float64{}
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			// Keep only the repo-relative tail ("internal/sim") so keys
			// survive a module rename.
			parts := strings.Split(rest, "/")
			pkg = strings.Join(parts[max(len(parts)-2, 0):], "/") + "/"
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %v", line, err)
		}
		samples[pkg+m[1]] = append(samples[pkg+m[1]], ns)
	}
	medians := map[string]float64{}
	for key, vs := range samples {
		sort.Float64s(vs)
		medians[key] = (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2
	}
	return medians, sc.Err()
}
