package workloads

import (
	"sync"
	"testing"

	"hastm.dev/hastm/internal/cache"
	"hastm.dev/hastm/internal/htm"
	"hastm.dev/hastm/internal/lazystm"
	"hastm.dev/hastm/internal/locksync"
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/native"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/stm"
	"hastm.dev/hastm/internal/tm"
)

// The backend-differential conformance suite: every scheme×structure cell
// runs the same seeded differential workload on the cycle-ordered
// simulator and on the host-native TL2 backend. Each run must replay
// clean through the sequential oracle, and — because differential cells
// are content-commuting (see differential.go) — every backend and scheme
// must converge on ONE structure fingerprint. A native-backend bug that
// commits a state no serial order explains (torn write-back, lost update,
// broken nesting) diverges either from its own oracle replay or from the
// simulator's fingerprint.

const (
	diffCores = 4
	diffOps   = 40 // per thread
	diffSeed  = 31
	diffUpd   = 40 // update percentage: heavy enough to contend
)

type diffBuilder struct {
	name string
	mk   func(m *mem.Memory) DataStructure
}

func diffBuilders() []diffBuilder {
	return []diffBuilder{
		{"bst", func(m *mem.Memory) DataStructure { return NewBST(m, 64) }},
		{"hashtable", func(m *mem.Memory) DataStructure { return NewHashtable(m, 256) }},
		{"btree", func(m *mem.Memory) DataStructure { return NewBTree(m, 64) }},
		{"objbst", func(m *mem.Memory) DataStructure { return NewObjBST(m, 64) }},
	}
}

func diffSchemes() []string {
	return []string{"seq", "lock", "stm", "lazy", "mvcc", "hastm", "hytm", "htm"}
}

func buildDiffScheme(name string, machine *sim.Machine, cores int) tm.System {
	stmCfg := tm.Config{Granularity: tm.LineGranularity, ValidateEvery: 128}
	switch name {
	case "seq":
		return locksync.NewSeq(machine)
	case "lock":
		return locksync.NewLock(machine)
	case "stm":
		return stm.New(machine, stmCfg)
	case "lazy":
		return lazystm.New(machine, stmCfg)
	case "mvcc":
		return lazystm.NewMVCC(machine, stmCfg)
	case "hastm":
		cfg := stm.DefaultHASTMConfig(tm.LineGranularity)
		cfg.SingleThread = cores == 1
		return stm.NewHASTM("hastm", machine, cfg)
	case "hytm":
		return htm.NewHyTM(machine, stmCfg, 4)
	case "htm":
		return htm.NewHTM(machine)
	default:
		panic("unknown differential scheme " + name)
	}
}

// simDiffFingerprint runs one differential cell on the simulator and
// returns its oracle-verified fingerprint. The sequential baseline is
// single-core by contract, so it executes every logical thread's op
// stream back to back on one core — the committed multiset is identical.
func simDiffFingerprint(t *testing.T, scheme string, b diffBuilder) uint64 {
	t.Helper()
	cores := diffCores
	if scheme == "seq" {
		cores = 1
	}
	cfg := sim.DefaultConfig(cores)
	cfg.L1 = cache.Config{SizeBytes: 16 << 10, Assoc: 4}
	cfg.L2 = cache.Config{SizeBytes: 128 << 10, Assoc: 8}
	machine := sim.New(cfg)
	sys := buildDiffScheme(scheme, machine, cores)
	ds := b.mk(machine.Mem)
	ds.Populate(machine.Mem, NewRand(diffSeed))
	log := NewOpLog()
	dcfg := DriverConfig{Ops: diffOps, UpdatePercent: diffUpd, Seed: diffSeed}
	progs := make([]sim.Program, cores)
	for i := range progs {
		progs[i] = func(c *sim.Ctx) {
			th := sys.Thread(c)
			if cores == 1 {
				for logical := 0; logical < diffCores; logical++ {
					if err := RunDiffThreadAs(th, logical, ds, dcfg, log); err != nil {
						t.Errorf("sim %s/%s logical %d: %v", scheme, b.name, logical, err)
					}
				}
				return
			}
			if err := RunDiffThread(th, ds, dcfg, log); err != nil {
				t.Errorf("sim %s/%s: %v", scheme, b.name, err)
			}
		}
	}
	machine.Run(progs...)
	if err := machine.CheckHealth(); err != nil {
		t.Fatalf("sim %s/%s: %v", scheme, b.name, err)
	}
	rep, err := VerifyDiffOracle(ds, machine.Mem, b.mk, diffSeed, log)
	if err != nil {
		t.Fatalf("sim %s/%s oracle: %v", scheme, b.name, err)
	}
	if rep.Committed != diffCores*diffOps {
		t.Fatalf("sim %s/%s committed %d ops, want %d", scheme, b.name, rep.Committed, diffCores*diffOps)
	}
	return rep.RunFingerprint
}

// nativeDiffFingerprint runs one differential cell on the host-native
// backend (optionally with the escalation ladder armed) and returns its
// oracle-verified fingerprint.
func nativeDiffFingerprint(t *testing.T, b diffBuilder, retryBudget int) uint64 {
	t.Helper()
	m := mem.New()
	ds := b.mk(m)
	ds.Populate(m, NewRand(diffSeed))
	sys := native.New(m, native.Config{
		RetryBudget: retryBudget,
		Threads:     diffCores,
		ArenaBytes:  1 << 21,
	})
	log := NewOpLog()
	dcfg := DriverConfig{Ops: diffOps, UpdatePercent: diffUpd, Seed: diffSeed}
	var wg sync.WaitGroup
	errs := make([]error, diffCores)
	for i := 0; i < diffCores; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs[id] = RunDiffThread(sys.Thread(id), ds, dcfg, log)
		}(i)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("native/%s thread %d: %v", b.name, id, err)
		}
	}
	rep, err := VerifyDiffOracle(ds, m, b.mk, diffSeed, log)
	if err != nil {
		t.Fatalf("native/%s oracle (budget %d): %v", b.name, retryBudget, err)
	}
	if rep.Committed != diffCores*diffOps {
		t.Fatalf("native/%s committed %d ops, want %d", b.name, rep.Committed, diffCores*diffOps)
	}
	return rep.RunFingerprint
}

// TestDifferentialConformance is the tentpole check: for every structure,
// the native backend (ladder off and ladder armed) and every simulator
// scheme produce the same oracle-verified committed-state fingerprint.
func TestDifferentialConformance(t *testing.T) {
	for _, b := range diffBuilders() {
		b := b
		t.Run(b.name, func(t *testing.T) {
			want := nativeDiffFingerprint(t, b, 0)
			if got := nativeDiffFingerprint(t, b, 4); got != want {
				t.Errorf("native ladder-armed fingerprint %016x != ladder-off %016x", got, want)
			}
			for _, scheme := range diffSchemes() {
				if got := simDiffFingerprint(t, scheme, b); got != want {
					t.Errorf("sim %s fingerprint %016x != native %016x", scheme, got, want)
				}
			}
		})
	}
}

// TestDifferentialOpsCommute pins the property the cross-backend
// comparison rests on: applying one differential op log in two opposite
// orders leaves identical content. If someone changes DiffOp in a way
// that breaks commutativity, this fails before the backend comparison
// starts reporting confusing mismatches.
func TestDifferentialOpsCommute(t *testing.T) {
	for _, b := range diffBuilders() {
		b := b
		t.Run(b.name, func(t *testing.T) {
			type op struct {
				seed   uint64
				update bool
			}
			r := NewRand(99)
			ops := make([]op, 200)
			for i := range ops {
				ops[i] = op{seed: r.Next(), update: i%2 == 0}
			}
			apply := func(seq []op) uint64 {
				m := mem.New()
				ds := b.mk(m)
				ds.Populate(m, NewRand(diffSeed))
				d := Direct{M: m}
				for _, o := range seq {
					if err := DiffOp(ds, d, NewRand(o.seed), o.update); err != nil {
						t.Fatal(err)
					}
				}
				return Fingerprint(ds, d)
			}
			fwd := apply(ops)
			rev := make([]op, len(ops))
			for i, o := range ops {
				rev[len(ops)-1-i] = o
			}
			if got := apply(rev); got != fwd {
				t.Fatalf("differential ops do not commute: forward %016x, reverse %016x", fwd, got)
			}
		})
	}
}
