package traces

import (
	"testing"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

func TestProfilesMatchFig13Shape(t *testing.T) {
	results := AnalyzeAll(200, 1)
	if len(results) != 12 {
		t.Fatalf("want 12 workloads, got %d", len(results))
	}
	atLeast70 := 0
	atLeast50Reuse := 0
	for _, r := range results {
		if r.LoadFraction >= 0.65 {
			atLeast70++
		}
		if r.LoadReuse >= 0.48 {
			atLeast50Reuse++
		}
		if r.LoadFraction <= 0 || r.LoadFraction >= 1 {
			t.Errorf("%s: degenerate load fraction %.2f", r.Name, r.LoadFraction)
		}
	}
	// "In almost all cases, loads account for greater than 70% of the
	// memory operations, and we see a reuse greater than 50%."
	if atLeast70 < 10 {
		t.Errorf("only %d/12 workloads have load fraction >= ~70%%", atLeast70)
	}
	if atLeast50Reuse < 9 {
		t.Errorf("only %d/12 workloads have load reuse >= ~50%%", atLeast50Reuse)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Profiles()[0]
	a := Generate(p, 10, 7)
	b := Generate(p, 10, 7)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("trace generation not deterministic")
			}
		}
	}
}

func TestAnalyzeCountsReusePerSection(t *testing.T) {
	// Reuse is per critical section: the same line in two different
	// sections is NOT reuse.
	secs := []Section{
		{{IsLoad: true, Line: 1}, {IsLoad: true, Line: 1}, {IsLoad: true, Line: 2}},
		{{IsLoad: true, Line: 1}},
	}
	r := Analyze("x", secs)
	if r.LoadReuse != 0.25 {
		t.Fatalf("LoadReuse = %.2f, want 0.25 (1 reuse of 4 loads)", r.LoadReuse)
	}
	if r.LoadFraction != 1 {
		t.Fatalf("LoadFraction = %.2f", r.LoadFraction)
	}
}

func TestStoresDoNotCountAsLoadReuse(t *testing.T) {
	secs := []Section{
		{{IsLoad: false, Line: 5}, {IsLoad: true, Line: 5}},
	}
	r := Analyze("x", secs)
	if r.LoadReuse != 0 {
		t.Fatalf("a prior store must not make a load count as load reuse: %.2f", r.LoadReuse)
	}
}

// TestStructureReuseOrdering verifies the §7.3 claim driving Fig 16/17:
// hashtable reuse is tiny, BST moderate, B-tree the highest.
func TestStructureReuseOrdering(t *testing.T) {
	m := mem.New()
	h := workloads.NewHashtable(m, 1024)
	h.Populate(m, workloads.NewRand(2))
	bst := workloads.NewBST(m, 512)
	bst.Populate(m, workloads.NewRand(2))
	bt := workloads.NewBTree(m, 512)
	bt.Populate(m, workloads.NewRand(2))

	rh := MeasureStructureReuse(h, m, 500, 20, 3)
	rb := MeasureStructureReuse(bst, m, 500, 20, 3)
	rt := MeasureStructureReuse(bt, m, 500, 20, 3)

	t.Logf("reuse: hashtable=%.2f bst=%.2f btree=%.2f", rh.LoadReuse, rb.LoadReuse, rt.LoadReuse)
	if !(rh.LoadReuse < rb.LoadReuse && rb.LoadReuse < rt.LoadReuse) {
		t.Fatalf("reuse ordering violated: hash=%.2f bst=%.2f btree=%.2f",
			rh.LoadReuse, rb.LoadReuse, rt.LoadReuse)
	}
	if rh.LoadReuse > 0.15 {
		t.Errorf("hashtable reuse %.2f too high (paper: <3%%)", rh.LoadReuse)
	}
	if rt.LoadReuse < 0.5 {
		t.Errorf("btree reuse %.2f too low (paper: ~68%%)", rt.LoadReuse)
	}
}

// failingDS's every operation fails, as a full structure's insert does.
type failingDS struct{ workloads.DataStructure }

func (failingDS) Name() string { return "failing" }

func (failingDS) Op(tm.Txn, *workloads.Rand, bool) error { return workloads.ErrTableFull }

// The reuse table has no row for a structure whose operations fail: the
// measurement stops with the structure's error instead of counting half an
// operation.
func TestStructureReuseStopsOnAFailedOp(t *testing.T) {
	defer func() {
		if r := recover(); r != workloads.ErrTableFull {
			t.Errorf("recovered %v, want %v", r, workloads.ErrTableFull)
		}
	}()
	MeasureStructureReuse(failingDS{}, mem.New(), 1, 100, 1)
}

// The object-layout BST reaches memory through LoadObj and StoreObj, which
// the recorder must record too: it measures the same loads and stores as
// the line-layout tree it mirrors.
func TestStructureReuseRecordsObjectFields(t *testing.T) {
	measure := func(build func(*mem.Memory, uint64) *workloads.BST) Result {
		m := mem.New()
		ds := build(m, 64)
		ds.Populate(m, workloads.NewRand(1))
		return MeasureStructureReuse(ds, m, 200, 50, 2)
	}
	obj, line := measure(workloads.NewObjBST), measure(workloads.NewBST)
	if obj.LoadFraction == 0 || obj.LoadFraction != line.LoadFraction {
		t.Errorf("objbst load fraction %v, bst %v: want the same nonzero mix", obj.LoadFraction, line.LoadFraction)
	}
}
