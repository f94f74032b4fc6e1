package harness

import (
	"fmt"

	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

// Extension experiments: ablations for the design choices the paper
// proposes but does not evaluate (DESIGN.md calls these out). They live in
// the same registry as the figures, prefixed "ext-".

// Extensions returns the extension-experiment registry.
func Extensions() []Spec {
	return []Spec{
		{"ext-wfilter", "Write-barrier and undo-log filtering (§5 extension)", planExtWFilter},
		{"ext-interatomic", "Inter-atomic redundancy elimination (Fig 10)", planExtInterAtomic},
		{"ext-defaultisa", "Section 3.3 default ISA: correct but unaccelerated", planExtDefaultISA},
		{"ext-granularity", "Object- vs cache-line-granularity conflict detection", planExtGranularity},
		{"ext-smt", "SMT: four hardware threads on two shared L1s vs four full cores", planExtSMT},
		{"ext-irrevocable", "Escalation-ladder cost when budgets never trip", planExtIrrevocable},
		{"ext-lazy", "Eager vs deferred-update vs MVCC across the read-pct axis", planExtLazy},
	}
}

// planExtWFilter measures the §5 write-filtering extension on write-heavy
// transactions with high store locality — the regime it targets.
func planExtWFilter(o Options) *Plan {
	reuses := []int{40, 60, 80, 95}
	var cols []string
	for _, r := range reuses {
		cols = append(cols, fmt.Sprintf("%d%%", r))
	}
	p := newPlan("ext-wfilter")
	var base []*Cell
	for _, r := range reuses {
		base = append(base, p.microExt(SchemeSTM, 50, 50, r, o))
	}
	var rows []cellRow
	for _, scheme := range []string{SchemeHASTM, SchemeWFilter} {
		row := cellRow{name: scheme}
		for _, r := range reuses {
			row.cells = append(row.cells, p.microExt(scheme, 50, 50, r, o))
		}
		rows = append(rows, row)
	}
	p.Assemble = func() *Report {
		rep := &Report{
			ID:    "ext-wfilter",
			Title: "Write-barrier and undo-log filtering (plane-1 marks)",
			Notes: "single thread; microbenchmark at 50% loads; relative to STM = 1.0. The extension pays only under extreme store locality — consistent with the paper concentrating on read filtering (§5).",
		}
		rep.Tables = append(rep.Tables, ratioTable("write-heavy micro", "scheme \\ store reuse", "x of STM time",
			cols, rows, func(j int) uint64 { return base[j].WallCycles() }))
		return rep
	}
	return p
}

// runInterAtomic executes the Fig 10 kernel: many short read-only atomic
// blocks over one small, stable working set. The warm-up's counters are
// kept, so assembly counts every cross-block filtered read.
func runInterAtomic(scheme string, lines uint64, o Options) (RunMetrics, error) {
	c, err := newSimCell(simSpec{scheme: scheme, threads: 1, o: o})
	if err != nil {
		return RunMetrics{}, err
	}
	base := c.m.Mem.Alloc(lines*64, 64)
	body := func(tx tm.Txn) error {
		for i := uint64(0); i < lines; i++ {
			tx.Load(base + i*64)
			tx.Exec(3)
		}
		return nil
	}
	metrics, res := c.run(warmKept, repeatAtomic(4, body), repeatAtomic(o.MicroTxns*4, body))
	return metrics, res.verdict(nil)
}

// planExtInterAtomic measures Fig 10's cross-transaction redundancy
// elimination: the second atomic block's reads of the same lines take the
// fast path when marks survive between blocks.
func planExtInterAtomic(o Options) *Plan {
	const lines = 16
	p := newPlan("ext-interatomic")
	ia := func(scheme string) *Cell {
		return p.cell(fmt.Sprintf("interatomic/%s", scheme), func() RunMetrics {
			return must(runInterAtomic(scheme, lines, o))
		})
	}
	base := ia(SchemeSTM)
	schemes := []string{SchemeHASTM, SchemeInterAtomic}
	cells := make(map[string]*Cell)
	for _, scheme := range schemes {
		cells[scheme] = ia(scheme)
	}
	p.Assemble = func() *Report {
		rep := &Report{
			ID:    "ext-interatomic",
			Title: "Inter-atomic redundancy elimination (Fig 10)",
			Notes: "single thread; short read-only transactions over a stable working set; relative to STM = 1.0",
		}
		tbl := Table{
			Name:      "repeated 16-line read-only blocks",
			ColHeader: "scheme",
			Cols:      []string{"rel time", "filtered reads"},
			Unit:      "x of STM / count",
		}
		baseWall := base.WallCycles()
		for _, scheme := range schemes {
			m := cells[scheme].Metrics()
			tbl.Rows = append(tbl.Rows, Row{
				Name:  scheme,
				Cells: []float64{float64(m.WallCycles) / float64(baseWall), float64(m.Stats.Count(telemetry.FilteredReads))},
			})
		}
		rep.Tables = append(rep.Tables, tbl)
		return rep
	}
	return p
}

// planExtDefaultISA verifies the Section 3.3 deployment story
// quantitatively: on a processor implementing only the default behaviour
// of the new instructions, the HASTM binary runs correctly at essentially
// STM speed, while the full implementation accelerates it.
func planExtDefaultISA(o Options) *Plan {
	p := newPlan("ext-defaultisa")
	cell := func(defaultISA bool, scheme string) *Cell {
		oc := o
		oc.DefaultISA = defaultISA
		isa := "full"
		if defaultISA {
			isa = "default"
		}
		return p.cell(fmt.Sprintf("%s/btree/1/%s-isa", scheme, isa), func() RunMetrics {
			return runStructure(scheme, WorkloadBTree, 1, oc)
		})
	}
	stmFull := cell(false, SchemeSTM)
	stmDef := cell(true, SchemeSTM)
	schemes := []string{SchemeSTM, SchemeHASTM, SchemeWatermark}
	type pair struct{ full, def *Cell }
	cells := make(map[string]pair)
	for _, scheme := range schemes {
		cells[scheme] = pair{full: cell(false, scheme), def: cell(true, scheme)}
	}
	p.Assemble = func() *Report {
		rep := &Report{
			ID:    "ext-defaultisa",
			Title: "Default ISA implementation (§3.3)",
			Notes: "single thread, B-tree; relative to the same machine's STM = 1.0. The paper's unconditional single-thread aggressive policy re-executes every transaction on a default-ISA machine (the counter never stays zero); the adaptive watermark controller degrades gracefully to near-STM speed.",
		}
		tbl := Table{Name: "btree", ColHeader: "scheme", Cols: []string{"full ISA", "default ISA"}, Unit: "x of STM time"}
		for _, scheme := range schemes {
			c := cells[scheme]
			tbl.Rows = append(tbl.Rows, Row{
				Name: scheme,
				Cells: []float64{
					float64(c.full.WallCycles()) / float64(stmFull.WallCycles()),
					float64(c.def.WallCycles()) / float64(stmDef.WallCycles()),
				},
			})
		}
		rep.Tables = append(rep.Tables, tbl)
		return rep
	}
	return p
}

// planExtGranularity compares conflict-detection granularities on the BST:
// object-granularity (per-node records in headers, Fig 5 barriers) vs the
// global line-granularity table (Fig 7 barriers).
func planExtGranularity(o Options) *Plan {
	p := newPlan("ext-granularity")
	seq := p.structure(SchemeSeq, WorkloadObjBST, 1, o)
	rows := []struct {
		name   string
		scheme string
		cores  [2]*Cell
	}{
		{name: "hastm/object", scheme: SchemeObjHASTM},
		{name: "hastm/line", scheme: SchemeHASTM},
		{name: "stm/object", scheme: SchemeObjSTM},
		{name: "stm/line", scheme: SchemeSTM},
	}
	for i := range rows {
		rows[i].cores[0] = p.structure(rows[i].scheme, WorkloadObjBST, 1, o)
		rows[i].cores[1] = p.structure(rows[i].scheme, WorkloadObjBST, 4, o)
	}
	p.Assemble = func() *Report {
		rep := &Report{
			ID:    "ext-granularity",
			Title: "Object vs cache-line conflict detection granularity",
			Notes: "BST; relative to 1-core sequential = 1.0",
		}
		tbl := Table{Name: "bst", ColHeader: "scheme", Cols: []string{"1 core", "4 cores"}, Unit: "x of sequential"}
		for _, r := range rows {
			tbl.Rows = append(tbl.Rows, Row{
				Name: r.name,
				Cells: []float64{
					float64(r.cores[0].WallCycles()) / float64(seq.WallCycles()),
					float64(r.cores[1].WallCycles()) / float64(seq.WallCycles()),
				},
			})
		}
		rep.Tables = append(rep.Tables, tbl)
		return rep
	}
	return p
}

// runSMT executes the §3.1 provision: four hardware threads run the B-tree
// either as four full cores or as two cores with two SMT threads each.
func runSMT(scheme string, smt bool, o Options) (RunMetrics, error) {
	spec := simSpec{scheme: scheme, workload: WorkloadBTree, threads: 4, o: o}
	if smt {
		spec.geometry = func(cfg *sim.Config) { cfg.ThreadsPerCore = 2 }
	}
	c, err := newSimCell(spec)
	if err != nil {
		return RunMetrics{}, err
	}
	ds := c.structure()
	cfg := workloads.DriverConfig{Ops: c.ops, UpdatePercent: 20, Seed: o.Seed}
	metrics, res := c.run(warmKept, nil, func(_ *sim.Ctx, th tm.Thread, _ int) error {
		return workloads.RunThread(th, ds, cfg)
	})
	return metrics, res.verdict(nil)
}

// fastValidationShare returns the percentage of validations answered by
// the markCounter==0 fast path.
func fastValidationShare(m RunMetrics) float64 {
	fast, full := m.Stats.Count(telemetry.FastValidations), m.Stats.Count(telemetry.FullValidations)
	if fast+full == 0 {
		return 0
	}
	return 100 * float64(fast) / float64(fast+full)
}

// planExtSMT measures §3.1's SMT provision: each hardware thread keeps
// private mark bits in the shared L1, and a sibling's stores invalidate
// them. The SMT pair loses marks to sibling stores and L1 sharing, eroding
// (but not breaking) the acceleration.
func planExtSMT(o Options) *Plan {
	p := newPlan("ext-smt")
	smtCell := func(scheme string, smt bool) *Cell {
		label := fmt.Sprintf("smt/%s/4c", scheme)
		if smt {
			label = fmt.Sprintf("smt/%s/2c2t", scheme)
		}
		return p.cell(label, func() RunMetrics { return must(runSMT(scheme, smt, o)) })
	}
	base := smtCell(SchemeLock, false)
	schemes := []string{SchemeHASTM, SchemeSTM, SchemeLock}
	type pair struct{ cores, smt *Cell }
	cells := make(map[string]pair)
	for _, scheme := range schemes {
		cells[scheme] = pair{cores: smtCell(scheme, false), smt: smtCell(scheme, true)}
	}
	p.Assemble = func() *Report {
		rep := &Report{
			ID:    "ext-smt",
			Title: "SMT sharing: 2 cores x 2 threads vs 4 cores",
			Notes: "B-tree, four hardware threads, fixed total work; relative to the 4-core lock run",
		}
		tbl := Table{
			Name:      "btree, 4 hardware threads",
			ColHeader: "scheme",
			Cols:      []string{"4 cores", "2c x 2 SMT", "fast-val % 4c", "fast-val % SMT"},
			Unit:      "x of 4-core lock time / percent",
		}
		baseWall := base.WallCycles()
		for _, scheme := range schemes {
			c := cells[scheme]
			m4, mS := c.cores.Metrics(), c.smt.Metrics()
			tbl.Rows = append(tbl.Rows, Row{
				Name: scheme,
				Cells: []float64{
					float64(m4.WallCycles) / float64(baseWall),
					float64(mS.WallCycles) / float64(baseWall),
					fastValidationShare(m4),
					fastValidationShare(mS),
				},
			})
		}
		rep.Tables = append(rep.Tables, tbl)
		return rep
	}
	return p
}

// planExtIrrevocable quantifies the escalation ladder's standing cost: the
// hastm-irrevocable scheme runs the standard structures with a finite
// retry budget that the figure workloads never exhaust, so its time must
// match plain HASTM (ratio ~1.0) and its escalation count must be zero.
// The ladder is pay-as-you-go — insurance against livelock, not a tax on
// the common case.
func planExtIrrevocable(o Options) *Plan {
	const cores = 4
	p := newPlan("ext-irrevocable")
	type pair struct{ base, ladder *Cell }
	cells := make(map[string]pair)
	for _, w := range Workloads() {
		cells[w] = pair{
			base:   p.structure(SchemeHASTM, w, cores, o),
			ladder: p.structure(SchemeIrrevocable, w, cores, o),
		}
	}
	p.Assemble = func() *Report {
		rep := &Report{
			ID:    "ext-irrevocable",
			Title: "Escalation ladder standing cost (budget never trips)",
			Notes: "4 cores, standard structures; hastm-irrevocable relative to hastm ~ 1.0 (the ladder's handshake is 3 L1 ops per transaction, a few percent on short transactions); escalations must be 0 on these workloads",
		}
		tbl := Table{
			Name:      "ladder armed vs off",
			ColHeader: "workload",
			Cols:      []string{"rel time", telemetry.Escalations.String()},
			Unit:      "x of hastm / count",
		}
		for _, w := range Workloads() {
			c := cells[w]
			tbl.Rows = append(tbl.Rows, Row{
				Name: w,
				Cells: []float64{
					float64(c.ladder.WallCycles()) / float64(c.base.WallCycles()),
					float64(c.ladder.Metrics().Stats.Count(telemetry.Escalations)),
				},
			})
		}
		rep.Tables = append(rep.Tables, tbl)
		return rep
	}
	return p
}

// planExtLazy compares version-management policies along the axis that
// separates them: the read share of the mix. Eager stm pays an undo log and
// in-place ownership on every store but validates cheaply; lazy pays a
// write-buffer lookup on reads-after-writes and a commit-time lock/validate
// protocol, but aborts privately; mvcc adds a commit clock and version
// history so read-only transactions commit without validating at all. At
// 100% reads the mvcc column must show zero aborts — the scheme's
// never-abort guarantee, also asserted by the conformance tests.
func planExtLazy(o Options) *Plan {
	const cores = 4
	readPcts := []int{50, 80, 90, 95, 100}
	schemes := []string{SchemeSTM, SchemeLazy, SchemeMVCC}
	var cols []string
	for _, rp := range readPcts {
		cols = append(cols, fmt.Sprintf("%d%%", rp))
	}
	p := newPlan("ext-lazy")
	mk := func(scheme string, rp int) *Cell {
		return p.cell(fmt.Sprintf("%s/hashtable/%dc/read%d", scheme, cores, rp), func() RunMetrics {
			return must(RunOne(scheme, WorkloadHash, cores, o, 100-rp))
		})
	}
	cells := make(map[string][]*Cell)
	for _, scheme := range schemes {
		for _, rp := range readPcts {
			cells[scheme] = append(cells[scheme], mk(scheme, rp))
		}
	}
	base := cells[SchemeSTM]
	var rows []cellRow
	for _, scheme := range []string{SchemeLazy, SchemeMVCC} {
		rows = append(rows, cellRow{name: scheme, cells: cells[scheme]})
	}
	p.Assemble = func() *Report {
		rep := &Report{
			ID:    "ext-lazy",
			Title: "Version management: eager vs deferred-update vs MVCC",
			Notes: "hash table, 4 cores, read share sweeping 50-100%; relative to eager stm = 1.0. The abort table counts every cause; the mvcc row must reach 0 at 100% reads (snapshot read-only transactions never abort). The snapshot plane table shows where mvcc's reads were served and how its writer transitions resolved.",
		}
		rep.Tables = append(rep.Tables, ratioTable("hashtable read-pct sweep", "scheme \\ read %", "x of stm time",
			cols, rows, func(j int) uint64 { return base[j].WallCycles() }))
		abortTbl := Table{Name: "aborts, all causes", ColHeader: "scheme \\ read %", Cols: cols, Unit: "count"}
		for _, scheme := range schemes {
			row := Row{Name: scheme}
			for j := range readPcts {
				row.Cells = append(row.Cells, float64(cells[scheme][j].Metrics().Stats.TotalAborts()))
			}
			abortTbl.Rows = append(abortTbl.Rows, row)
		}
		rep.Tables = append(rep.Tables, abortTbl)
		snapTbl := Table{
			Name:      "mvcc snapshot plane",
			ColHeader: "read %",
			Cols:      []string{"snapshot reads", "history reads", "upgrades", "writer restarts", "snapshot aborts"},
			Unit:      "count",
		}
		for j, rp := range readPcts {
			m := cells[SchemeMVCC][j].Metrics()
			snapTbl.Rows = append(snapTbl.Rows, Row{
				Name: fmt.Sprintf("%d%%", rp),
				Cells: []float64{
					float64(m.Stats.Count(telemetry.SnapshotReads)),
					float64(m.Stats.Count(telemetry.VersionHistoryReads)),
					float64(m.Stats.Count(telemetry.MVCCUpgrades)),
					float64(m.Stats.Count(telemetry.MVCCWriterRestarts)),
					float64(m.Stats.Count(telemetry.SnapshotAborts)),
				},
			})
		}
		rep.Tables = append(rep.Tables, snapTbl)
		return rep
	}
	return p
}
