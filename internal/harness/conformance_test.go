package harness

import (
	"testing"

	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

// FinalStateHash runs o.Ops retry-stable operations (workloads.
// RunThreadStable) on the named scheme and workload, split across cores,
// then fingerprints the structure's final contents. With one core the
// operation sequence is identical for every scheme — aborts replay the
// same operation — so every correct scheme must return the same hash: the
// cross-scheme conformance property. With several cores the hash is still
// deterministic per scheme (the simulator's interleaving is), but schemes
// may legitimately differ because commit order differs.
func FinalStateHash(scheme, workload string, cores int, o Options, updatePct int) (uint64, error) {
	c, err := newSimCell(simSpec{scheme: scheme, workload: workload, threads: cores, o: o})
	if err != nil {
		return 0, err
	}
	ds := c.structure()
	cfg := workloads.DriverConfig{Ops: c.ops, UpdatePercent: updatePct, Seed: o.Seed}
	_, res := c.run(warmKept, nil, func(_ *sim.Ctx, th tm.Thread, _ int) error {
		return workloads.RunThreadStable(th, ds, cfg)
	})
	if err := res.verdict(nil); err != nil {
		return 0, err
	}
	return workloads.Fingerprint(ds, workloads.Direct{M: c.m.Mem}), nil
}

// Cross-scheme conformance: for a fixed seed and a single thread, every
// scheme applies the identical retry-stable operation sequence, so every
// scheme must leave identical final contents in each data structure. This
// is the strongest end-to-end correctness check the harness has: a commit
// that loses an update, an abort that leaks one, or a re-execution that
// applies an op twice shows up as a fingerprint mismatch.
func TestCrossSchemeConformance(t *testing.T) {
	o := QuickOptions()
	schemes := conformancePaper
	for _, wl := range Workloads() {
		ref, err := FinalStateHash(SchemeSeq, wl, 1, o, 20)
		if err != nil {
			t.Fatalf("%s/seq: %v", wl, err)
		}
		for _, scheme := range schemes {
			got, err := FinalStateHash(scheme, wl, 1, o, 20)
			if err != nil {
				t.Fatalf("%s/%s: %v", wl, scheme, err)
			}
			if got != ref {
				t.Errorf("%s: %s final contents %#x != seq %#x", wl, scheme, got, ref)
			}
		}
	}
}

// The extension schemes must conform too: filtering and granularity are
// performance mechanisms, never semantics.
func TestExtensionSchemeConformance(t *testing.T) {
	o := QuickOptions()
	ref, err := FinalStateHash(SchemeSeq, WorkloadBST, 1, o, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range conformanceLine {
		got, err := FinalStateHash(scheme, WorkloadBST, 1, o, 20)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if got != ref {
			t.Errorf("bst: %s final contents %#x != seq %#x", scheme, got, ref)
		}
	}
	// Object granularity on the object-layout BST.
	objRef, err := FinalStateHash(SchemeSeq, WorkloadObjBST, 1, o, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range conformanceObject {
		got, err := FinalStateHash(scheme, WorkloadObjBST, 1, o, 20)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if got != objRef {
			t.Errorf("objbst: %s final contents %#x != seq %#x", scheme, got, objRef)
		}
	}
}

// The conformance lists, grouped by what each group is checked on. Every
// scheme in the table must be in exactly one of them (or be the sequential
// reference), so a scheme cannot be added unchecked.
var (
	// Every §7 structure, against seq (TestCrossSchemeConformance).
	conformancePaper = []string{SchemeSTM, SchemeLazy, SchemeMVCC, SchemeHASTM, SchemeHyTM, SchemeHTM, SchemeLock}
	// Line-granularity ablations and extensions, on the BST.
	conformanceLine = []string{SchemeCautious, SchemeNoReuse, SchemeNaive, SchemeWFilter, SchemeInterAtomic, SchemeWatermark, SchemeIrrevocable}
	// Object granularity, on the object-layout BST.
	conformanceObject = []string{SchemeObjSTM, SchemeObjHASTM}
)

func TestConformanceCoversSchemeTable(t *testing.T) {
	checked := map[string]int{SchemeSeq: 1}
	for _, list := range [][]string{conformancePaper, conformanceLine, conformanceObject} {
		for _, scheme := range list {
			checked[scheme]++
		}
	}
	for _, scheme := range Schemes() {
		if checked[scheme] != 1 {
			t.Errorf("scheme %q is in %d conformance lists, want exactly 1", scheme, checked[scheme])
		}
		delete(checked, scheme)
	}
	for scheme := range checked {
		t.Errorf("conformance lists name %q, which is not in the scheme table", scheme)
	}
}

// Every scheme the table names must build and run: one quick single-core
// cell each, through RunOne, the entry point of every figure cell.
func TestSchemeTableEntriesRun(t *testing.T) {
	for _, scheme := range Schemes() {
		workload := WorkloadBST
		if scheme == SchemeObjSTM || scheme == SchemeObjHASTM {
			workload = WorkloadObjBST
		}
		m, err := RunOne(scheme, workload, 1, QuickOptions(), 20)
		if err != nil {
			t.Errorf("%s: %v", scheme, err)
		} else if m.WallCycles == 0 || m.Stats.Commits() == 0 {
			t.Errorf("%s: empty run (%d cycles, %d commits)", scheme, m.WallCycles, m.Stats.Commits())
		}
	}
}

// Multi-core runs cannot promise scheme-identical contents (commit order
// differs), but each scheme must be self-deterministic, and the default
// ISA must not change what HASTM commits — only how fast.
func TestConformanceDeterminismAndDefaultISA(t *testing.T) {
	o := QuickOptions()
	a, err := FinalStateHash(SchemeHASTM, WorkloadBTree, 4, o, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FinalStateHash(SchemeHASTM, WorkloadBTree, 4, o, 20)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("hastm/btree/4 nondeterministic: %#x vs %#x", a, b)
	}

	full, err := FinalStateHash(SchemeHASTM, WorkloadBTree, 1, o, 20)
	if err != nil {
		t.Fatal(err)
	}
	oDef := o
	oDef.DefaultISA = true
	def, err := FinalStateHash(SchemeHASTM, WorkloadBTree, 1, oDef, 20)
	if err != nil {
		t.Fatal(err)
	}
	if full != def {
		t.Errorf("default ISA changed HASTM's final contents: %#x vs %#x", def, full)
	}

	// Sanity: the fingerprint must actually depend on the workload history.
	other := o
	other.Seed = 99
	diff, err := FinalStateHash(SchemeSeq, WorkloadBTree, 1, other, 20)
	if err != nil {
		t.Fatal(err)
	}
	if diff == full {
		t.Error("fingerprint insensitive to seed — hash is not covering contents")
	}
}
