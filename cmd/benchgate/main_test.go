package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: hastm.dev/hastm/internal/stm
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkReadBarrier-8  	     692	    300 ns/op	      56 B/op	       3 allocs/op
BenchmarkReadBarrier-8  	     700	    100 ns/op	      56 B/op	       3 allocs/op
BenchmarkReadBarrier-8  	     695	    200 ns/op	      56 B/op	       3 allocs/op
PASS
ok  	hastm.dev/hastm/internal/stm	0.8s
pkg: hastm.dev/hastm/internal/core
BenchmarkFilteredReadBarrier 	    2580	     80 ns/op
BenchmarkFilteredReadBarrier 	    2580	     90 ns/op
PASS
`

func TestParseBenchMedians(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if ns, ok := got["internal/stm/ReadBarrier"]; !ok || ns != 200 {
		t.Errorf("stm ReadBarrier median ns/op = %v (present %v), want 200; have %v", ns, ok, got)
	}
	if ns, ok := got["internal/core/FilteredReadBarrier"]; !ok || ns != 85 {
		t.Errorf("FilteredReadBarrier median of an even count = %v (present %v), want 85", ns, ok)
	}
}

func TestScaleGates(t *testing.T) {
	medians := map[string]float64{
		"internal/sim/SimOpsScale/16core":  100,
		"internal/sim/SimOpsScale/256core": 180,
		"internal/stm/Load/1core":          5,
		"internal/sim/Load/1core":          6,
	}
	var gates scaleFlags
	for _, bad := range []string{"a:b", ":b:2", "a:b:x", "a:b:0"} {
		if gates.Set(bad) == nil {
			t.Errorf("-scale %q accepted", bad)
		}
	}
	if err := gates.Set("SimOpsScale/16core:SimOpsScale/256core:2.0"); err != nil {
		t.Fatal(err)
	}
	if err := checkScales(gates, medians); err != nil {
		t.Errorf("ratio 1.8 under a limit of 2: %v", err)
	}
	medians["internal/sim/SimOpsScale/256core"] = 210
	if err := checkScales(gates, medians); err == nil || !strings.Contains(err.Error(), "exceeds 2.00") {
		t.Errorf("ratio 2.1 over a limit of 2: %v", err)
	}
	for name, want := range map[string]string{"Load/1core": "ambiguous", "Nope": "not found"} {
		if _, err := findBench(name, medians); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("findBench(%q) = %v, want %q", name, err, want)
		}
	}
}
