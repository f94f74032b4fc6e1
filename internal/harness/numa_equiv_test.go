package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"hastm.dev/hastm/internal/faults"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
)

// The 1-socket equivalence suite: expressing today's flat machine as
// Topology{1, N} must change NOTHING — not a cycle, not a counter, not a
// trace byte. The directory refactor replaced the broadcast snoop wholesale,
// so this is the executable form of the tentpole's "flat configuration
// remains byte-identical" requirement, run across the figure, faultstorm and
// conformance paths and under both schedulers. (Worker-count invariance is
// TestParallelReportsMatchSerial's job; cells here are single runs.)

// equivCells samples the figure matrix across schemes, structures and core
// counts, including the deferred-update family and the hybrid.
var equivCells = []struct {
	scheme   string
	workload string
	cores    int
}{
	{SchemeLock, WorkloadBST, 1},
	{SchemeSTM, WorkloadHash, 4},
	{SchemeHASTM, WorkloadBST, 4},
	{SchemeLazy, WorkloadBTree, 2},
	{SchemeMVCC, WorkloadHash, 8},
	{SchemeHyTM, WorkloadHash, 4},
	{SchemeCautious, WorkloadBTree, 4},
}

func TestOneSocketEquivalenceRuns(t *testing.T) {
	for _, ref := range []bool{false, true} {
		for _, tc := range equivCells {
			name := fmt.Sprintf("%s/%s/%dc/ref=%v", tc.scheme, tc.workload, tc.cores, ref)
			t.Run(name, func(t *testing.T) {
				o := QuickOptions()
				o.ReferenceScheduler = ref
				o.TxnTraceMax = 1 << 16
				flat, err := RunOne(tc.scheme, tc.workload, tc.cores, o, 20)
				if err != nil {
					t.Fatalf("flat run: %v", err)
				}
				ot := o
				ot.Topology = sim.Topology{Sockets: 1, CoresPerSocket: tc.cores}
				topo, err := RunOne(tc.scheme, tc.workload, tc.cores, ot, 20)
				if err != nil {
					t.Fatalf("1-socket run: %v", err)
				}

				if flat.WallCycles != topo.WallCycles {
					t.Errorf("wall cycles: flat %d, 1-socket %d", flat.WallCycles, topo.WallCycles)
				}
				if !reflect.DeepEqual(flat.Stats.Totals(), topo.Stats.Totals()) {
					t.Errorf("stats and telemetry totals diverge")
				}
				var fb, sb bytes.Buffer
				flat.TxnTrace.Render(&fb, 0)
				topo.TxnTrace.Render(&sb, 0)
				if !bytes.Equal(fb.Bytes(), sb.Bytes()) {
					t.Errorf("trace bytes diverge (%d vs %d bytes)", fb.Len(), sb.Len())
				}
				if nr := numaRecord(topo); nr != nil {
					t.Errorf("1-socket run produced a NUMA JSON block: %+v", nr)
				}
				for i, s := range topo.CacheStats.Socket {
					if s.CrossSocketMisses != 0 || s.RemoteDirtyFetches != 0 || s.DirectoryInvalidations != 0 {
						t.Errorf("1-socket run socket %d has NUMA traffic: %+v", i, s)
					}
				}
			})
		}
	}
}

// TestOneSocketEquivalenceFaults pins the fault plane: the injected-fault
// schedule, its hash, the committed-op count and the oracle fingerprint
// must not move when the flat machine is spelled Topology{1, N}.
func TestOneSocketEquivalenceFaults(t *testing.T) {
	spec, err := faults.ParseSpec("suspend=900,evict=600,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range []bool{false, true} {
		for _, scheme := range []string{SchemeSTM, SchemeHASTM, SchemeMVCC} {
			t.Run(fmt.Sprintf("%s/ref=%v", scheme, ref), func(t *testing.T) {
				o := QuickOptions()
				o.ReferenceScheduler = ref
				flat, err := FaultedRun(scheme, WorkloadHash, 4, o, spec, 20)
				if err != nil {
					t.Fatalf("flat run: %v", err)
				}
				ot := o
				ot.Topology = sim.Topology{Sockets: 1, CoresPerSocket: 4}
				topo, err := FaultedRun(scheme, WorkloadHash, 4, ot, spec, 20)
				if err != nil {
					t.Fatalf("1-socket run: %v", err)
				}
				if !reflect.DeepEqual(flat, topo) {
					t.Errorf("fault reports diverge:\nflat:     %+v\n1-socket: %+v", flat, topo)
				}
			})
		}
	}
}

// TestOneSocketEquivalenceConformance pins the cross-scheme oracle hash.
func TestOneSocketEquivalenceConformance(t *testing.T) {
	o := QuickOptions()
	for _, scheme := range []string{SchemeSTM, SchemeHASTM, SchemeLazy} {
		flat, err := FinalStateHash(scheme, WorkloadBST, 4, o, 20)
		if err != nil {
			t.Fatalf("%s flat: %v", scheme, err)
		}
		ot := o
		ot.Topology = sim.Topology{Sockets: 1, CoresPerSocket: 4}
		topo, err := FinalStateHash(scheme, WorkloadBST, 4, ot, 20)
		if err != nil {
			t.Fatalf("%s 1-socket: %v", scheme, err)
		}
		if flat != topo {
			t.Errorf("%s: fingerprint %#x flat vs %#x 1-socket", scheme, flat, topo)
		}
	}
}

// TestTopologyConfigErrors pins the clear-error path for a NUMA misconfig:
// an over-subscribed topology fails RunOne with a descriptive error instead
// of panicking inside the simulator.
func TestTopologyConfigErrors(t *testing.T) {
	o := QuickOptions()
	o.Topology = sim.Topology{Sockets: 2, CoresPerSocket: 2}
	if _, err := RunOne(SchemeSTM, WorkloadHash, 8, o, 20); err == nil {
		t.Error("8 threads on a 2x2 topology accepted; want over-subscription error")
	} else if got := err.Error(); !bytes.Contains([]byte(got), []byte("2x2")) {
		t.Errorf("over-subscription error %q does not name the topology", got)
	}
}

// TestScatterDeterminismAndRecord pins that a multi-socket scatter run is
// deterministic and that its metrics carry a fully-labelled NUMA block —
// for the figure cells and, since placement is done once in the cell
// runner, for service and fault-injected cells too: each honours the
// mapping (scatter differs from compact), is identical across two runs and
// both schedulers, passes its oracle, and reports the mapping it ran with.
func TestScatterDeterminismAndRecord(t *testing.T) {
	o := QuickOptions()
	o.Topology = sim.Topology{Sockets: 2, CoresPerSocket: 4}
	o.Mapping = MapScatter
	run := func() RunMetrics {
		m, err := RunOne(SchemeHASTM, WorkloadHash, 4, o, 20)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.WallCycles != b.WallCycles {
		t.Errorf("scatter run not deterministic: %d vs %d cycles", a.WallCycles, b.WallCycles)
	}
	if !reflect.DeepEqual(a.Stats.Totals(), b.Stats.Totals()) {
		t.Errorf("scatter run stats not deterministic")
	}
	rec := numaRecord(a)
	if rec == nil {
		t.Fatal("multi-socket run produced no NUMA record")
	}
	if rec.Topology != "2x4" || rec.Mapping != MapScatter || rec.Placement != "interleave" {
		t.Errorf("NUMA record labels = %q/%q/%q", rec.Topology, rec.Mapping, rec.Placement)
	}
	if len(rec.Sockets) != 2 {
		t.Fatalf("NUMA record has %d socket blocks, want 2", len(rec.Sockets))
	}
	if rec.Total.CrossSocketMisses == 0 || rec.Total.DirectoryInvalidations == 0 {
		t.Errorf("scatter hashtable run recorded no cross-socket traffic: %+v", rec.Total)
	}

	// The non-figure cells, on a 2x8 machine. Each case returns everything
	// simulated about one run, for DeepEqual.
	type observed struct {
		Wall    uint64
		Totals  telemetry.Block
		Service *ServiceRecord
		Fault   FaultReport
		Mapping string
	}
	spec, err := faults.ParseSpec("suspend=900,evict=600,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(Options) observed{
		"service": func(o Options) observed {
			sc := ServiceConfig(o, 4, 256, 0.9, DefaultAdmission())
			m, err := RunOneServiceScheme(SchemeSTM, 4, sc, o) // a nil error is the oracle passing
			if err != nil {
				t.Fatalf("service cell (%s): %v", o.Mapping, err)
			}
			if nr := numaRecord(m); nr == nil || nr.Topology != "2x8" || nr.Mapping != o.Mapping {
				t.Errorf("service cell (%s): NUMA record %+v", o.Mapping, nr)
			}
			return observed{Wall: m.WallCycles, Totals: m.Stats.Totals(), Service: m.Service, Mapping: m.Mapping}
		},
		"faulted": func(o Options) observed {
			rep, err := FaultedRun(SchemeSTM, WorkloadHash, 4, o, spec, 20)
			if err != nil {
				t.Fatalf("faulted cell (%s): %v", o.Mapping, err)
			}
			if rep.Err != "" {
				t.Errorf("faulted cell (%s) failed its oracle: %s", o.Mapping, rep.Err)
			}
			return observed{Fault: rep}
		},
	}
	for name, cell := range cases {
		byMapping := map[string]observed{}
		for _, mapping := range []string{MapCompact, MapScatter} {
			om := QuickOptions()
			om.Topology = sim.Topology{Sockets: 2, CoresPerSocket: 8}
			om.Mapping = mapping
			first := cell(om)
			if again := cell(om); !reflect.DeepEqual(first, again) {
				t.Errorf("%s/%s: not deterministic across two runs", name, mapping)
			}
			om.ReferenceScheduler = true
			if ref := cell(om); !reflect.DeepEqual(first, ref) {
				t.Errorf("%s/%s: reference scheduler diverges from the lease scheduler", name, mapping)
			}
			byMapping[mapping] = first
		}
		if reflect.DeepEqual(byMapping[MapCompact], byMapping[MapScatter]) {
			t.Errorf("%s: scatter ran exactly as compact — the mapping was dropped", name)
		}
	}
}

// TestOneSocketEquivalenceFigure runs a whole single-thread figure under
// Topology{1,1} and demands byte-identical rendered output and (host
// timings normalised) identical JSON cells vs. the flat run.
func TestOneSocketEquivalenceFigure(t *testing.T) {
	o := QuickOptions()
	ot := o
	ot.Topology = sim.Topology{Sockets: 1, CoresPerSocket: 1}

	planFlat := planFig16(o)
	planTopo := planFig16(ot)
	reps := Execute([]*Plan{planFlat, planTopo}, ExecConfig{Workers: 1})
	repFlat, repTopo := reps[0], reps[1]

	var bf, bt bytes.Buffer
	repFlat.Render(&bf)
	repTopo.Render(&bt)
	if !bytes.Equal(bf.Bytes(), bt.Bytes()) {
		t.Errorf("rendered fig16 diverges:\nflat:\n%s\n1-socket:\n%s", bf.String(), bt.String())
	}

	norm := func(p *Plan, rep *Report, opt Options) []byte {
		doc := NewBenchJSON(opt, 1, []*Plan{p}, []*Report{rep}, 0)
		// Host-side fields are nondeterministic; simulated fields must match.
		doc.GeneratedAt = time.Time{}
		doc.HostSeconds = 0
		doc.Options = Options{}
		for i := range doc.Cells {
			doc.Cells[i].HostMS = 0
			doc.Cells[i].HostNS = 0
			doc.Cells[i].CyclesPerHostSec = 0
		}
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	jf := norm(planFlat, repFlat, o)
	jt := norm(planTopo, repTopo, ot)
	if !bytes.Equal(jf, jt) {
		t.Errorf("JSON cells diverge between flat and 1-socket runs")
	}
}
