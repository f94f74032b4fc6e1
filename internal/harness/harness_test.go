package harness

import (
	"strings"
	"testing"

	"hastm.dev/hastm/internal/native"
)

// The harness tests verify the SHAPES the paper reports — who wins, by
// roughly what factor, where crossovers fall — at reduced experiment sizes
// so the suite stays fast: one predicate per claim EXPERIMENTS.md reports as
// reproduced, checked here on the serial run and in golden_test.go on the
// parallel engine's. EXPERIMENTS.md records the full-size numbers;
// cmd/hastm-bench's TestPinnedOutputs pins the bytes.

func quick() Options { return QuickOptions() }

// reportAt returns one experiment's report from the shared run of every
// experiment at QuickOptions with the given worker count.
func reportAt(t *testing.T, workers int, id string) *Report {
	t.Helper()
	for _, r := range reportsAt(t, workers) {
		if r.ID == id {
			return r
		}
	}
	t.Fatalf("no report %q in the -j %d quick run", id, workers)
	return nil
}

// quickReport returns one experiment's report from the shared serial run.
func quickReport(t *testing.T, id string) *Report { return reportAt(t, 1, id) }

// figure regenerates one registered experiment serially.
func figure(id string, o Options) *Report {
	s, ok := ByID(id)
	if !ok {
		panic("unknown experiment " + id)
	}
	return s.Run(o)
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig11", "fig12", "fig13", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22"}
	specs := All()
	if len(specs) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(specs), len(want))
	}
	for i, id := range want {
		if specs[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, specs[i].ID, id)
		}
		if _, ok := ByID(id); !ok {
			t.Errorf("ByID(%s) not found", id)
		}
	}
	if _, ok := ByID("fig99"); ok {
		t.Error("ByID accepted an unknown id")
	}
}

func TestRunOneValidation(t *testing.T) {
	if _, err := RunOne("nope", WorkloadBST, 1, quick(), 20); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := RunOne(SchemeSTM, "nope", 1, quick(), 20); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := RunOne(SchemeSTM, WorkloadBST, 0, quick(), 20); err == nil {
		t.Error("zero cores accepted")
	}
}

// A total that cannot be split over the threads is a named configuration
// error in every cell kind that splits one — not a silent zero-work cell, and
// not a silent clamp to one operation per thread.
func TestUnsplittableOpsRejected(t *testing.T) {
	o := quick()
	o.Ops = 3
	const want = "ops 3 cannot be split over 4 threads"
	check := func(name string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one naming %q", name, err, want)
		}
	}
	_, err := RunOne(SchemeSTM, WorkloadBST, 4, o, 20)
	check("RunOne", err)
	_, err = FaultedRun(SchemeSTM, WorkloadBST, 4, o, stormSpec(), 20)
	check("FaultedRun", err)
	_, err = FinalStateHash(SchemeSTM, WorkloadBST, 4, o, 20)
	check("FinalStateHash", err)
	_, _, err = ChaosStormRun(WorkloadBST, 4, o, native.ChaosSpec{Abort: 10})
	check("ChaosStormRun", err)
	_, err = RunOneServiceScheme(SchemeSTM, 4, ServiceConfig(o, 4, 256, 0.9, DefaultAdmission()), o)
	if err == nil {
		t.Error("RunOneServiceScheme accepted a config with no requests per core")
	}
	// One op per thread is the smallest cell, and it must do its work.
	o.Ops = 4
	m, err := RunOne(SchemeSTM, WorkloadBST, 4, o, 20)
	if err != nil || m.Stats.Commits() != 4 {
		t.Errorf("ops 4 on 4 threads: err %v, commits %d, want 4", err, m.Stats.Commits())
	}

	// hastm-bench -quick -ops 8 -fig fig11: the 16-processor column used
	// to print 0.000; its cells now fail, which the CLI turns into exit 1.
	o.Ops = 8
	spec, _ := ByID("fig11")
	plan := spec.Plan(o)
	Execute([]*Plan{plan}, ExecConfig{})
	failed := FailedCells([]*Plan{plan})
	if len(failed) != 6 {
		t.Errorf("fig11 at 8 ops: %d failed cells, want the six 16-processor cells", len(failed))
	}
	for _, c := range failed {
		if !strings.HasSuffix(c.Label, "/16") || !strings.Contains(c.Err, "ops 8 cannot be split over 16 threads") {
			t.Errorf("unexpected failed cell %s: %s", c.Label, c.Err)
		}
	}
}

func TestRunOneDeterministic(t *testing.T) {
	a, err := RunOne(SchemeHASTM, WorkloadBTree, 2, quick(), 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOne(SchemeHASTM, WorkloadBTree, 2, quick(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if a.WallCycles != b.WallCycles {
		t.Fatalf("nondeterministic wall cycles: %d vs %d", a.WallCycles, b.WallCycles)
	}
	if a.Stats.Commits() != b.Stats.Commits() {
		t.Fatalf("nondeterministic commits")
	}
}

// Fig 11 shape: STM has single-thread overhead but scales; the coarse lock
// does not scale; STM undercuts the lock by 16 processors.
func TestFig11Shape(t *testing.T) { claimFig11(t, 1) }

func claimFig11(t *testing.T, workers int) {
	rep := reportAt(t, workers, "fig11")
	for _, wl := range Workloads() {
		stm1 := rep.MustGet(wl, "stm", "1")
		stm16 := rep.MustGet(wl, "stm", "16")
		lock16 := rep.MustGet(wl, "lock", "16")
		if stm1 < 1.3 {
			t.Errorf("%s: STM single-thread overhead %.2f, want >= 1.3x of lock", wl, stm1)
		}
		if stm16 >= stm1/2 {
			t.Errorf("%s: STM did not scale: %.2f -> %.2f", wl, stm1, stm16)
		}
		if stm16 >= lock16 {
			t.Errorf("%s: STM (%.2f) did not cross below the lock (%.2f) at 16 procs", wl, stm16, lock16)
		}
		if lock16 < 0.8 {
			t.Errorf("%s: the coarse lock appears to scale (%.2f at 16 procs)", wl, lock16)
		}
	}
}

// Fig 12 shape: "the majority of the STM overhead arises from the read
// barrier and validation" — rdbar is the single largest bucket on every
// workload, and rdbar+validate dominate.
func TestFig12Shape(t *testing.T) { claimFig12(t, 1) }

func claimFig12(t *testing.T, workers int) {
	rep := reportAt(t, workers, "fig12")
	for _, wl := range Workloads() {
		rd := rep.MustGet("breakdown", wl, "rdbar")
		for _, col := range rep.Tables[0].Cols {
			if v := rep.MustGet("breakdown", wl, col); col != "rdbar" && v >= rd {
				t.Errorf("%s: %s (%.1f%%) >= rdbar (%.1f%%) — rdbar must be the largest bucket", wl, col, v, rd)
			}
		}
		if val := rep.MustGet("breakdown", wl, "validate"); rd+val < 35 {
			t.Errorf("%s: rdbar+validate = %.1f%%, want the dominant share", wl, rd+val)
		}
	}
}

// Fig 13 shape: loads >= ~70% and load reuse >= ~50% for most workloads;
// store reuse sits near the 40% the microbenchmarks hold constant.
func TestFig13Shape(t *testing.T) { claimFig13(t, 1) }

func claimFig13(t *testing.T, workers int) {
	rep := reportAt(t, workers, "fig13")
	tbl := rep.Tables[0]
	highLoads, highReuse := 0, 0
	for _, row := range tbl.Rows {
		if row.Cells[0] >= 65 {
			highLoads++
		}
		if row.Cells[1] >= 48 {
			highReuse++
		}
		if sr := row.Cells[2]; sr < 15 || sr > 70 {
			t.Errorf("%s: store reuse %.1f%% far from the paper's ~40%% regime", row.Name, sr)
		}
	}
	if len(tbl.Rows) != 12 {
		t.Fatalf("want 12 workloads, got %d", len(tbl.Rows))
	}
	if highLoads < 10 || highReuse < 9 {
		t.Errorf("workload characteristics off: %d/12 load-heavy, %d/12 reuse-heavy", highLoads, highReuse)
	}
}

// §7.3 shape, Fig 13's second table: the hashtable's transactions barely
// reuse a loaded line (paper: < 3 %), the trees' do (paper: BST 38 %,
// B-tree 68 %).
func TestFig13StructureReuseShape(t *testing.T) {
	rep := quickReport(t, "fig13")
	const tbl, col = "transactional data structures (§7.3)", "load reuse %"
	hash := rep.MustGet(tbl, "hashtable", col)
	if hash >= 3 {
		t.Errorf("hashtable load reuse %.1f%%, want < 3%%", hash)
	}
	for _, tree := range []string{"bst", "btree"} {
		if r := rep.MustGet(tbl, tree, col); r <= hash {
			t.Errorf("%s load reuse %.1f%% is not above the hashtable's %.1f%%", tree, r, hash)
		}
	}
}

// Fig 15 shape: every accelerated scheme beats the STM; HASTM beats
// cautious; HASTM's gap to Hybrid narrows as load fraction and reuse grow.
func TestFig15Shape(t *testing.T) { claimFig15(t, 1) }

func claimFig15(t *testing.T, workers int) {
	rep := reportAt(t, workers, "fig15")
	for _, tbl := range rep.Tables {
		for _, row := range tbl.Rows {
			for i, v := range row.Cells {
				if v >= 1.05 {
					t.Errorf("%s/%s at col %d: %.2f — accelerated schemes must not lose to STM", tbl.Name, row.Name, i, v)
				}
			}
		}
	}
	gapLow := rep.MustGet("40% cache reuse", "HASTM", "60%") - rep.MustGet("40% cache reuse", "Hybrid", "60%")
	gapHigh := rep.MustGet("60% cache reuse", "HASTM", "90%") - rep.MustGet("60% cache reuse", "Hybrid", "90%")
	if gapHigh >= gapLow {
		t.Errorf("HASTM-vs-Hybrid gap should narrow with reuse and load fraction: %.3f -> %.3f", gapLow, gapHigh)
	}
	for _, reuse := range []string{"40% cache reuse", "50% cache reuse", "60% cache reuse"} {
		for _, load := range rep.Tables[0].Cols {
			hastm, caut := rep.MustGet(reuse, "HASTM", load), rep.MustGet(reuse, "Cautious", load)
			if hastm > caut {
				t.Errorf("%s/%s: full HASTM (%.3f) slower than cautious-only (%.3f)", reuse, load, hastm, caut)
			}
		}
	}
}

// Fig 16 shape: HASTM comparable to HyTM (within ~35% at quick sizes),
// both clearly faster than the STM on the trees; lock close to sequential.
func TestFig16Shape(t *testing.T) { claimFig16(t, 1) }

func claimFig16(t *testing.T, workers int) {
	rep := reportAt(t, workers, "fig16")
	for _, wl := range Workloads() {
		hastm := rep.MustGet("single-thread", "hastm", wl)
		hytm := rep.MustGet("single-thread", "hytm", wl)
		stm := rep.MustGet("single-thread", "stm", wl)
		lock := rep.MustGet("single-thread", "lock", wl)
		if hastm > hytm*1.35 || hytm > hastm*1.35 {
			t.Errorf("%s: HASTM (%.2f) and HyTM (%.2f) not comparable", wl, hastm, hytm)
		}
		if wl != WorkloadHash && hastm > stm*0.8 {
			t.Errorf("%s: HASTM (%.2f) does not significantly cut STM overhead (%.2f)", wl, hastm, stm)
		}
		if lock > 2.2 {
			t.Errorf("%s: lock overhead %.2f vs sequential too large", wl, lock)
		}
		if stm < 1.0 {
			t.Errorf("%s: STM (%.2f) cannot beat sequential single-threaded", wl, stm)
		}
	}
	// The improvement is the smallest in the hashtable (reuse < 3%).
	gain := func(wl string) float64 {
		return rep.MustGet("single-thread", "stm", wl) - rep.MustGet("single-thread", "hastm", wl)
	}
	if gain(WorkloadHash) > gain(WorkloadBST) || gain(WorkloadHash) > gain(WorkloadBTree) {
		t.Errorf("hashtable gain (%.2f) should be the smallest (bst %.2f, btree %.2f)",
			gain(WorkloadHash), gain(WorkloadBST), gain(WorkloadBTree))
	}
}

// Fig 17 shape: full HASTM fastest; cautious-only loses the read-log
// elimination (and on the hashtable is no better than the STM); no-reuse
// still beats the STM on trees via validation elimination.
func TestFig17Shape(t *testing.T) { claimFig17(t, 1) }

func claimFig17(t *testing.T, workers int) {
	rep := reportAt(t, workers, "fig17")
	for _, wl := range Workloads() {
		full := rep.MustGet("ablation", "hastm", wl)
		caut := rep.MustGet("ablation", "hastm-cautious", wl)
		stm := rep.MustGet("ablation", "stm", wl)
		if full > caut {
			t.Errorf("%s: full HASTM (%.2f) slower than cautious (%.2f)", wl, full, caut)
		}
		if full > stm {
			t.Errorf("%s: full HASTM (%.2f) slower than STM (%.2f)", wl, full, stm)
		}
	}
	// On the trees, barrier filtering pays on top of the noreuse mode; on
	// the hashtable (<3% reuse) it does not — noreuse carries the gain.
	for _, wl := range []string{WorkloadBST, WorkloadBTree} {
		full := rep.MustGet("ablation", "hastm", wl)
		noreuse := rep.MustGet("ablation", "hastm-noreuse", wl)
		if full > noreuse {
			t.Errorf("%s: full HASTM (%.2f) slower than noreuse (%.2f)", wl, full, noreuse)
		}
	}
	// §7.3: for the hashtable the cautious mode does not pay off — its
	// time is at least comparable to (in the paper: longer than) the STM.
	caut := rep.MustGet("ablation", "hastm-cautious", WorkloadHash)
	stm := rep.MustGet("ablation", "stm", WorkloadHash)
	if caut < stm*0.9 {
		t.Errorf("hashtable: cautious (%.2f) should not substantially beat STM (%.2f) at <3%% reuse", caut, stm)
	}
}

// Figs 18–20 shape: lock flat; STM and HASTM scale; HASTM best TM; the
// hashtable's HASTM crosses below the lock at 4 cores.
func TestMulticoreScalingShapes(t *testing.T) { claimMulticoreScaling(t, 1) }

func claimMulticoreScaling(t *testing.T, workers int) {
	for _, tc := range []struct {
		fig string
		wl  string
	}{{"fig18", WorkloadBST}, {"fig19", WorkloadBTree}, {"fig20", WorkloadHash}} {
		rep := reportAt(t, workers, tc.fig)
		h1 := rep.MustGet(tc.wl, "hastm", "1")
		h4 := rep.MustGet(tc.wl, "hastm", "4")
		s1 := rep.MustGet(tc.wl, "stm", "1")
		s4 := rep.MustGet(tc.wl, "stm", "4")
		l4 := rep.MustGet(tc.wl, "lock", "4")
		if h4 >= h1*0.6 {
			t.Errorf("%s: HASTM did not scale (%.2f -> %.2f)", tc.wl, h1, h4)
		}
		if s4 >= s1*0.6 {
			t.Errorf("%s: STM did not scale (%.2f -> %.2f)", tc.wl, s1, s4)
		}
		if h4 >= s4 {
			t.Errorf("%s: HASTM (%.2f) must beat STM (%.2f) at 4 cores", tc.wl, h4, s4)
		}
		if l4 < 0.85 {
			t.Errorf("%s: lock scaled (%.2f at 4 cores)", tc.wl, l4)
		}
		if tc.wl == WorkloadHash && h4 >= l4 {
			t.Errorf("hashtable: HASTM (%.2f) should cross below the lock (%.2f) at 4 cores", h4, l4)
		}
	}
}

// Figs 21/22 shape: the naive always-aggressive scheme degrades with cores
// and ends up worse than the pure STM at 4 cores, while HASTM (which stays
// cautious under interference) remains the best.
func TestNaiveAggressiveCollapses(t *testing.T) { claimNaiveAggressiveCollapse(t, 1) }

func claimNaiveAggressiveCollapse(t *testing.T, workers int) {
	for _, tc := range []struct {
		fig string
		wl  string
	}{{"fig21", WorkloadBST}, {"fig22", WorkloadBTree}} {
		rep := reportAt(t, workers, tc.fig)
		n4 := rep.MustGet(tc.wl, "naive-aggressive", "4")
		s4 := rep.MustGet(tc.wl, "stm", "4")
		h4 := rep.MustGet(tc.wl, "hastm", "4")
		if n4 <= s4 {
			t.Errorf("%s: naive-aggressive (%.2f) should be worse than STM (%.2f) at 4 cores", tc.wl, n4, s4)
		}
		if h4 >= n4 {
			t.Errorf("%s: HASTM (%.2f) must beat naive-aggressive (%.2f)", tc.wl, h4, n4)
		}
		n1 := rep.MustGet(tc.wl, "naive-aggressive", "1")
		h1 := rep.MustGet(tc.wl, "hastm", "1")
		if n1 > h1*1.05 || h1 > n1*1.05 {
			t.Errorf("%s: with one core naive (%.2f) and HASTM (%.2f) should coincide", tc.wl, n1, h1)
		}
	}
}

func TestReportRenderAndGet(t *testing.T) {
	rep := &Report{
		ID:    "figX",
		Title: "test",
		Tables: []Table{{
			Name: "t", ColHeader: "h", Cols: []string{"a", "b"},
			Rows: []Row{{Name: "r", Cells: []float64{1.5, 2.5}}},
		}},
	}
	if v := rep.MustGet("t", "r", "b"); v != 2.5 {
		t.Fatalf("MustGet = %v", v)
	}
	if _, ok := rep.Get("t", "r", "c"); ok {
		t.Fatal("Get found a nonexistent column")
	}
	if _, ok := rep.Get("t", "x", "a"); ok {
		t.Fatal("Get found a nonexistent row")
	}
	var sb strings.Builder
	rep.Render(&sb)
	out := sb.String()
	for _, want := range []string{"figX", "test", "1.500", "2.500", "a", "b"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
}

// --- Extension experiments ----------------------------------------------------

func TestExtensionRegistry(t *testing.T) {
	for _, id := range []string{"ext-wfilter", "ext-interatomic", "ext-defaultisa", "ext-granularity"} {
		if _, ok := ByID(id); !ok {
			t.Errorf("extension %s not registered", id)
		}
	}
}

// ext-interatomic: carrying marks across atomic blocks must produce
// cross-block filtered reads and a clear speedup on block-repetitive code.
func TestExtInterAtomicShape(t *testing.T) { claimExtInterAtomic(t, 1) }

func claimExtInterAtomic(t *testing.T, workers int) {
	rep := reportAt(t, workers, "ext-interatomic")
	plain := rep.MustGet("repeated 16-line read-only blocks", "hastm", "rel time")
	ia := rep.MustGet("repeated 16-line read-only blocks", "hastm-interatomic", "rel time")
	filtered := rep.MustGet("repeated 16-line read-only blocks", "hastm-interatomic", "filtered reads")
	if ia >= plain {
		t.Errorf("inter-atomic reuse (%.2f) did not beat per-block HASTM (%.2f)", ia, plain)
	}
	if filtered == 0 {
		t.Error("no cross-block filtered reads recorded")
	}
}

// ext-defaultisa: HASTM on the default ISA must stay correct and close to
// STM speed under the adaptive controller, while the full ISA accelerates.
func TestExtDefaultISAShape(t *testing.T) {
	rep := quickReport(t, "ext-defaultisa")
	if v := rep.MustGet("btree", "hastm", "full ISA"); v >= 0.95 {
		t.Errorf("full-ISA HASTM (%.2f) should clearly beat STM", v)
	}
	if v := rep.MustGet("btree", "hastm-watermark", "default ISA"); v > 1.4 {
		t.Errorf("default-ISA HASTM with the adaptive controller (%.2f) should be near STM speed", v)
	}
}

// ext-granularity: object granularity avoids the record-table traffic and
// should beat line granularity for both HASTM and the STM on the BST.
func TestExtGranularityShape(t *testing.T) { claimExtGranularity(t, 1) }

func claimExtGranularity(t *testing.T, workers int) {
	rep := reportAt(t, workers, "ext-granularity")
	if obj, line := rep.MustGet("bst", "hastm/object", "1 core"), rep.MustGet("bst", "hastm/line", "1 core"); obj >= line {
		t.Errorf("object-granularity HASTM (%.2f) should beat line granularity (%.2f)", obj, line)
	}
	if obj, line := rep.MustGet("bst", "stm/object", "1 core"), rep.MustGet("bst", "stm/line", "1 core"); obj >= line {
		t.Errorf("object-granularity STM (%.2f) should beat line granularity (%.2f)", obj, line)
	}
}

// ext-wfilter: the honest finding — the write-filtering extension only
// approaches profitability at extreme store locality; the overhead must at
// least shrink monotonically with store reuse.
func TestExtWFilterShape(t *testing.T) { claimExtWFilter(t, 1) }

func claimExtWFilter(t *testing.T, workers int) {
	rep := reportAt(t, workers, "ext-wfilter")
	lo := rep.MustGet("write-heavy micro", "hastm-wfilter", "40%")
	hi := rep.MustGet("write-heavy micro", "hastm-wfilter", "95%")
	if hi >= lo {
		t.Errorf("write filtering should pay off more at higher store reuse: %.3f -> %.3f", lo, hi)
	}
}

// ext-smt: SMT sharing must stay correct and land within a modest factor
// of the separate-core configuration (constructive L1 sharing offsets the
// §3.1 sibling-store mark invalidations at a 20% update mix).
func TestExtSMTShape(t *testing.T) {
	rep := quickReport(t, "ext-smt")
	h4 := rep.MustGet("btree, 4 hardware threads", "hastm", "4 cores")
	hS := rep.MustGet("btree, 4 hardware threads", "hastm", "2c x 2 SMT")
	if hS > h4*1.5 || h4 > hS*1.5 {
		t.Errorf("SMT vs cores diverge too much: %.2f vs %.2f", hS, h4)
	}
	s4 := rep.MustGet("btree, 4 hardware threads", "stm", "4 cores")
	if h4 >= s4 {
		t.Errorf("HASTM (%.2f) must beat STM (%.2f) on 4 cores", h4, s4)
	}
}

func TestRunOneTraceCapture(t *testing.T) {
	o := quick()
	o.TxnTraceMax = 256
	m, err := RunOne(SchemeHASTM, WorkloadBST, 1, o, 20)
	if err != nil {
		t.Fatal(err)
	}
	if m.TxnTrace == nil || m.TxnTrace.Len() == 0 {
		t.Fatal("trace requested but empty")
	}
	evs := m.TxnTrace.Events()
	kinds := map[string]bool{}
	for _, e := range evs {
		kinds[e.Kind] = true
	}
	if !kinds["begin"] || !kinds["commit"] {
		t.Fatalf("trace lacks begin/commit events: %v", kinds)
	}
}
