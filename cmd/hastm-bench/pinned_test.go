package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "TestPinnedOutputs: rewrite testdata/ from this run's outputs")

// pinnedRows are the command's deterministic outputs. A text row's stdout is
// checked in as testdata/<name>.txt; the rest, too large to review as text,
// are FNV-1a values in testdata/fnv.txt: stdout, and the -trace file of a
// trace row hashed per figure, so "fig18" names the figure whose events
// moved. -quick's stdout and trace are a prefix of -quick -ext's, and a -fig
// run's trace is its figure's section, so one run pins them all.
var pinnedRows = []struct {
	name     string
	args     []string
	text     bool     // stdout as text, not as a hash
	trace    bool     // also pin the -trace file
	traceHas []string // lines the trace must carry
}{
	{name: "quick-ext", args: []string{"-quick", "-ext"}, text: true, trace: true},
	// Admission control's events are in the trace, which passed the life-cycle
	// check: shed stands alone (no begin, no fake abort), serialize is
	// informational.
	{name: "service", args: []string{"-quick", "-service"}, text: true, trace: true,
		traceHas: []string{`"ev":"shed"`, `"ev":"serialize"`}},
	{name: "faults", args: []string{"-quick", "-faults", "suspend=900,evict=600,snoop=1100,htmabort=1700,seed=3"}, text: true},
	{name: "adversarial", args: []string{"-adversarial", "all"}, text: true},
	// -fig runs one experiment: quick-ext's fig18 section.
	{name: "fig18", args: []string{"-quick", "-fig", "fig18"}},
	{name: "cell-hastm", args: []string{"-cell", "hastm/btree/2", "-events", "20"}, text: true},
	{name: "cell-htm", args: []string{"-cell", "htm/btree/2", "-events", "2000"}},
	// The hybrid scheme's fallbacks make its trace a life-cycle check worth
	// running.
	{name: "cell-hytm", args: []string{"-cell", "hytm/btree/2", "-events", "2000"}, trace: true},
	// Pinned under -j 1 only: the document's sched blocks, workers and
	// options differ by mode by design. Its host fields are dropped
	// (withoutHostFields).
	{name: "quick-json", args: []string{"-quick", "-json"}},
}

// pinModes are the execution modes every row must print identically in:
// serial, and parallel on the reference scheduler. TestParallelReportsMatchSerial
// and TestTelemetryIdenticalAcrossWorkerCounts hold the lease scheduler
// across worker counts.
var pinModes = []struct {
	name string
	args []string
}{
	{"serial", []string{"-j", "1"}},
	{"reference", []string{"-j", "4", "-sched", "reference"}},
}

const fnvFile = "testdata/fnv.txt"

// TestPinnedOutputs runs every pinned row in every mode and compares its
// outputs byte for byte with testdata/. A moved text line is reported as
// file, line, want and got; a moved hash by its key. After a change that
// means to move an output,
//
//	go test ./cmd/hastm-bench -run TestPinnedOutputs -update
//
// rewrites the pins, and `git diff testdata/` is the change's delta table.
func TestPinnedOutputs(t *testing.T) {
	hashes := map[string]uint64{}
	if !*update {
		hashes = readHashes(t)
	}
	for _, mode := range pinModes {
		for _, r := range pinnedRows {
			jsonRow := slices.Contains(r.args, "-json")
			if jsonRow && mode.name != "serial" {
				continue
			}
			t.Run(mode.name+"/"+r.name, func(t *testing.T) {
				args := append(slices.Clone(r.args), mode.args...)
				var trace string
				if r.trace {
					trace = filepath.Join(t.TempDir(), "trace.jsonl")
					args = append(args, "-trace", trace)
				}
				code, stdout, stderr := runMain(t, args...)
				if code != 0 {
					t.Fatalf("hastm-bench %s: exit status %d\n%s", strings.Join(args, " "), code, stderr)
				}
				if jsonRow {
					stdout = withoutHostFields(t, stdout)
				}
				got := map[string]uint64{}
				if r.text {
					checkText(t, filepath.Join("testdata", r.name+".txt"), stdout, *update && mode.name == "serial")
				} else {
					got[r.name+"/stdout"] = fnvOf([]byte(stdout))
				}
				if r.trace {
					b, err := os.ReadFile(trace)
					if err != nil {
						t.Fatal(err)
					}
					for fig, h := range traceHashes(b) {
						got[r.name+"/trace/"+fig] = h
					}
					for _, want := range r.traceHas {
						if !bytes.Contains(b, []byte(want)) {
							t.Errorf("the trace carries no %s line", want)
						}
					}
				}
				for key, h := range got {
					want, ok := hashes[key]
					switch {
					case *update && !ok:
						hashes[key] = h
					case h != want:
						t.Errorf("%s: %s: %016x, pinned %016x", fnvFile, key, h, want)
					}
				}
				for key := range hashes {
					if _, ok := got[key]; !ok && strings.HasPrefix(key, r.name+"/") && !*update {
						t.Errorf("%s: %s: pinned, but the run printed no such output", fnvFile, key)
					}
				}
			})
		}
	}
	if *update {
		writeHashes(t, hashes)
	}
}

// checkText compares out with the pin in file, or rewrites the pin (under
// -update the first mode writes and a later one compares).
func checkText(t *testing.T, file, out string, rewrite bool) {
	t.Helper()
	if rewrite {
		if err := os.WriteFile(file, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(b); out != want {
		t.Error(movedLines(file, want, out))
	}
}

// movedLines lists the lines between the longest common prefix and suffix of
// want and got, numbered as in the pin, at most ten of them.
func movedLines(file, want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	p := 0
	for p < len(w) && p < len(g) && w[p] == g[p] {
		p++
	}
	s := 0
	for s < len(w)-p && s < len(g)-p && w[len(w)-1-s] == g[len(g)-1-s] {
		s++
	}
	w, g = w[p:len(w)-s], g[p:len(g)-s]
	var b strings.Builder
	fmt.Fprintf(&b, "%s: moved lines: %d", file, max(len(w), len(g)))
	for i := 0; i < max(len(w), len(g)) && i < 10; i++ {
		fmt.Fprintf(&b, "\n%s:%d:", file, p+i+1)
		if i < len(w) {
			fmt.Fprintf(&b, "\n\twant %q", w[i])
		}
		if i < len(g) {
			fmt.Fprintf(&b, "\n\tgot  %q", g[i])
		}
	}
	return b.String()
}

func fnvOf(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// traceHashes hashes a JSONL trace per figure: each line goes to the figure
// its "cell" names.
func traceHashes(trace []byte) map[string]uint64 {
	figs := map[string]hash.Hash64{}
	for _, line := range bytes.SplitAfter(trace, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		_, cell, _ := bytes.Cut(line, []byte(`"cell":"`))
		fig, _, _ := bytes.Cut(cell, []byte("/"))
		h := figs[string(fig)]
		if h == nil {
			h = fnv.New64a()
			figs[string(fig)] = h
		}
		h.Write(line)
	}
	hashes := map[string]uint64{}
	for fig, h := range figs {
		hashes[fig] = h.Sum64()
	}
	return hashes
}

// withoutHostFields drops the JSON report's host-dependent fields
// (timestamps, revision, host timings); everything left derives from
// simulated state.
func withoutHostFields(t *testing.T, doc string) string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(doc))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"generated_at", "git_rev", "go_version", "num_cpu", "host_seconds"} {
		delete(m, key)
	}
	for _, cell := range m["cells"].([]any) {
		for _, key := range []string{"host_ms", "host_ns", "cycles_per_host_sec"} {
			delete(cell.(map[string]any), key)
		}
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// readHashes reads testdata/fnv.txt: one "key hash" line per output.
func readHashes(t *testing.T) map[string]uint64 {
	b, err := os.ReadFile(fnvFile)
	if err != nil {
		t.Fatal(err)
	}
	hashes := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if key, hex, ok := strings.Cut(line, " "); ok {
			h, err := strconv.ParseUint(hex, 16, 64)
			if err != nil {
				t.Fatalf("%s: %q: %v", fnvFile, line, err)
			}
			hashes[key] = h
		}
	}
	return hashes
}

func writeHashes(t *testing.T, hashes map[string]uint64) {
	keys := make([]string, 0, len(hashes))
	for key := range hashes {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, key := range keys {
		fmt.Fprintf(&b, "%s %016x\n", key, hashes[key])
	}
	if err := os.WriteFile(fnvFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
