package workloads

import (
	"strings"
	"testing"
	"testing/quick"

	"hastm.dev/hastm/internal/cache"
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/stm"
	"hastm.dev/hastm/internal/tm"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("Rand not deterministic")
		}
	}
}

func TestRandPercentBounds(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 1000; i++ {
		if r.Percent(0) {
			t.Fatal("Percent(0) fired")
		}
		if !r.Percent(100) {
			t.Fatal("Percent(100) missed")
		}
	}
}

// --- Hashtable oracle tests -------------------------------------------------

func TestHashtableAgainstOracle(t *testing.T) {
	m := mem.New()
	h := NewHashtable(m, 256)
	d := Direct{M: m}
	oracle := map[uint64]uint64{}
	r := NewRand(42)
	for i := 0; i < 3000; i++ {
		key := r.Intn(h.KeySpace())
		switch r.Intn(3) {
		case 0:
			val := r.Next()
			h.Insert(d, key, val)
			oracle[key] = val
		case 1:
			h.Delete(d, key)
			delete(oracle, key)
		default:
			got, ok := h.Lookup(d, key)
			want, wantOK := oracle[key]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("lookup(%d) = (%d,%v), want (%d,%v)", key, got, ok, want, wantOK)
			}
		}
	}
}

func TestHashtableFull(t *testing.T) {
	m := mem.New()
	h := NewHashtable(m, 8) // 8 slots
	d := Direct{M: m}
	var err error
	for k := uint64(0); k < 9; k++ {
		_, err = h.Insert(d, k, k)
		if err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("overfull table did not report ErrTableFull")
	}
}

func TestHashtableTombstoneReuse(t *testing.T) {
	m := mem.New()
	h := NewHashtable(m, 8)
	d := Direct{M: m}
	for k := uint64(0); k < 8; k++ {
		if _, err := h.Insert(d, k, k); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	if !h.Delete(d, 3) {
		t.Fatal("delete failed")
	}
	if ok, err := h.Insert(d, 100, 1); err != nil || !ok {
		t.Fatalf("insert into tombstone: ok=%v err=%v", ok, err)
	}
	if v, ok := h.Lookup(d, 100); !ok || v != 1 {
		t.Fatal("tombstone slot not found on lookup")
	}
	if _, ok := h.Lookup(d, 3); ok {
		t.Fatal("deleted key still visible")
	}
}

// --- BST oracle tests --------------------------------------------------------

func TestBSTAgainstOracle(t *testing.T) {
	m := mem.New()
	b := NewBST(m, 0)
	b.keySpace = 512
	d := Direct{M: m}
	oracle := map[uint64]uint64{}
	r := NewRand(43)
	for i := 0; i < 4000; i++ {
		key := r.Intn(b.KeySpace())
		switch r.Intn(3) {
		case 0:
			val := r.Next()
			b.Insert(d, key, val)
			oracle[key] = val
		case 1:
			got := b.Delete(d, key)
			_, want := oracle[key]
			if got != want {
				t.Fatalf("delete(%d) = %v, want %v", key, got, want)
			}
			delete(oracle, key)
		default:
			got, ok := b.Lookup(d, key)
			want, wantOK := oracle[key]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("lookup(%d) = (%d,%v), want (%d,%v)", key, got, ok, want, wantOK)
			}
		}
	}
}

// Property: after any sequence of inserts, an in-order walk of the BST is
// sorted and contains exactly the inserted keys.
func TestBSTInOrderProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		m := mem.New()
		b := NewBST(m, 0)
		b.keySpace = 1 << 16
		d := Direct{M: m}
		want := map[uint64]bool{}
		for _, k := range keys {
			b.Insert(d, uint64(k), 1)
			want[uint64(k)] = true
		}
		var walk func(node uint64) []uint64
		walk = func(node uint64) []uint64 {
			if node == 0 {
				return nil
			}
			left := walk(m.Load(node + bstLeft))
			right := walk(m.Load(node + bstRight))
			out := append(left, m.Load(node+bstKey))
			return append(out, right...)
		}
		got := walk(m.Load(b.root))
		if len(got) != len(want) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				return false
			}
		}
		for _, k := range got {
			if !want[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- B-tree oracle tests -------------------------------------------------------

func TestBTreeAgainstOracle(t *testing.T) {
	m := mem.New()
	bt := NewBTree(m, 0)
	bt.keySpace = 512
	d := Direct{M: m}
	oracle := map[uint64]uint64{}
	r := NewRand(44)
	for i := 0; i < 4000; i++ {
		key := r.Intn(bt.KeySpace())
		if r.Percent(40) {
			val := r.Next()
			bt.Insert(d, key, val)
			oracle[key] = val
		} else {
			got, ok := bt.Lookup(d, key)
			want, wantOK := oracle[key]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("op %d: lookup(%d) = (%d,%v), want (%d,%v)", i, key, got, ok, want, wantOK)
			}
		}
	}
}

// Property: B-tree node invariants hold after arbitrary insert sequences —
// keys sorted within a node, counts within bounds, all leaves reachable.
func TestBTreeInvariantsProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		m := mem.New()
		bt := NewBTree(m, 0)
		bt.keySpace = 1 << 16
		d := Direct{M: m}
		inserted := map[uint64]bool{}
		for _, k := range keys {
			bt.Insert(d, uint64(k), uint64(k)+7)
			inserted[uint64(k)] = true
		}
		ok := true
		var check func(node uint64, lo, hi uint64, depth int) int
		check = func(node uint64, lo, hi uint64, depth int) int {
			if depth > 64 {
				ok = false
				return 0
			}
			n, leaf := btDecode(m.Load(node + btCount))
			if n > btMaxKeys {
				ok = false
				return 0
			}
			var prev uint64
			for i := uint64(0); i < n; i++ {
				k := m.Load(keyAddr(node, i))
				if i > 0 && k <= prev {
					ok = false
				}
				if k < lo || k > hi {
					ok = false
				}
				prev = k
			}
			if leaf {
				return 1
			}
			leafDepth := -1
			for i := uint64(0); i <= n; i++ {
				child := m.Load(kidAddr(node, i))
				if child == 0 {
					ok = false
					continue
				}
				clo, chi := lo, hi
				if i > 0 {
					clo = m.Load(keyAddr(node, i-1))
				}
				if i < n {
					chi = m.Load(keyAddr(node, i))
				}
				dep := check(child, clo, chi, depth+1)
				if leafDepth == -1 {
					leafDepth = dep
				} else if dep != leafDepth {
					ok = false // all leaves at one depth
				}
			}
			return leafDepth + 1
		}
		check(m.Load(bt.rootCell), 0, ^uint64(0), 0)
		if !ok {
			return false
		}
		// Everything inserted must be found.
		for k := range inserted {
			if _, found := bt.Lookup(d, k); !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// --- Concurrent runs under the STM -------------------------------------------

func TestStructuresConcurrentUnderSTM(t *testing.T) {
	build := []struct {
		name string
		mk   func(m *mem.Memory) DataStructure
	}{
		{"hashtable", func(m *mem.Memory) DataStructure { return NewHashtable(m, 512) }},
		{"bst", func(m *mem.Memory) DataStructure { return NewBST(m, 128) }},
		{"btree", func(m *mem.Memory) DataStructure { return NewBTree(m, 128) }},
	}
	for _, b := range build {
		b := b
		t.Run(b.name, func(t *testing.T) {
			cfg := sim.DefaultConfig(4)
			cfg.L1 = cache.Config{SizeBytes: 16 << 10, Assoc: 4}
			cfg.L2 = cache.Config{SizeBytes: 128 << 10, Assoc: 8}
			machine := sim.New(cfg)
			sys := stm.New(machine, tm.Config{Granularity: tm.LineGranularity, ValidateEvery: 64})
			ds := b.mk(machine.Mem)
			ds.Populate(machine.Mem, NewRand(5))
			dcfg := DriverConfig{Ops: 60, UpdatePercent: 20, Seed: 9}
			prog := func(c *sim.Ctx) {
				if err := RunThread(sys.Thread(c), ds, dcfg); err != nil {
					t.Errorf("%s: %v", b.name, err)
				}
			}
			machine.Run(prog, prog, prog, prog)
			if machine.Stats.Commits() != 4*60 {
				t.Fatalf("commits = %d, want %d", machine.Stats.Commits(), 4*60)
			}
		})
	}
}

func TestMicroRespectsLoadFraction(t *testing.T) {
	m := mem.New()
	mi := NewMicro(m, 1024)
	mi.LoadPercent = 90
	r := NewRand(3)
	loads, stores := 0, 0
	counter := countingTxn{m: m, loads: &loads, stores: &stores}
	for i := 0; i < 20; i++ {
		if err := mi.Op(counter, r, false); err != nil {
			t.Fatal(err)
		}
	}
	frac := float64(loads) / float64(loads+stores)
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("load fraction = %.2f, want ~0.90", frac)
	}
}

type countingTxn struct {
	m             *mem.Memory
	loads, stores *int
}

func (c countingTxn) Load(a uint64) uint64 { *c.loads++; return c.m.Load(a) }

func (c countingTxn) Store(a, v uint64) { *c.stores++; c.m.Store(a, v) }

func (c countingTxn) LoadObj(b, o uint64) uint64 { return c.Load(b + o) }

func (c countingTxn) StoreObj(b, o, v uint64) { c.Store(b+o, v) }

func (c countingTxn) Atomic(f func(tm.Txn) error) error { return f(c) }

func (c countingTxn) OrElse(a ...func(tm.Txn) error) error { return a[0](c) }

func (c countingTxn) Retry() { panic("retry") }

func (c countingTxn) Exec(n uint64) {}

func (c countingTxn) Alloc(size, align uint64) uint64 { return c.m.Alloc(size, align) }

func (c countingTxn) StoreInit(a, v uint64) { c.m.Store(a, v) }

func (c countingTxn) Abort() { panic("abort") }

// --- ObjBST oracle tests -------------------------------------------------------

func TestObjBSTAgainstOracle(t *testing.T) {
	m := mem.New()
	b := NewObjBST(m, 0)
	b.keySpace = 512
	d := Direct{M: m}
	oracle := map[uint64]uint64{}
	r := NewRand(45)
	for i := 0; i < 4000; i++ {
		key := r.Intn(b.KeySpace())
		switch r.Intn(3) {
		case 0:
			val := r.Next()
			b.Insert(d, key, val)
			oracle[key] = val
		case 1:
			got := b.Delete(d, key)
			_, want := oracle[key]
			if got != want {
				t.Fatalf("delete(%d) = %v, want %v", key, got, want)
			}
			delete(oracle, key)
		default:
			got, ok := b.Lookup(d, key)
			want, wantOK := oracle[key]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("lookup(%d) = (%d,%v), want (%d,%v)", key, got, ok, want, wantOK)
			}
		}
	}
	// The object layout shares the bare tree's invariant walk, so the
	// oracle replay checks ordering and cycles on objbst cells too.
	if err := InvariantChecker(b).CheckInvariants(m); err != nil {
		t.Fatalf("invariants after a correct run: %v", err)
	}
	key := b.load(d, b.load(d, b.root, bstKey), bstKey)
	b.store(d, b.load(d, b.root, bstKey), bstKey, b.keySpace)
	if err := b.CheckInvariants(m); err == nil {
		t.Fatalf("invariant walk missed root key %d rewritten outside the key space", key)
	}
}

// TestObjBSTUnderObjectGranularitySTM runs the object-layout tree under an
// object-granularity STM concurrently — the managed-environment pairing.
func TestObjBSTUnderObjectGranularitySTM(t *testing.T) {
	cfg := sim.DefaultConfig(4)
	cfg.L1 = cache.Config{SizeBytes: 16 << 10, Assoc: 4}
	cfg.L2 = cache.Config{SizeBytes: 128 << 10, Assoc: 8}
	machine := sim.New(cfg)
	sys := stm.New(machine, tm.Config{Granularity: tm.ObjectGranularity, ValidateEvery: 64})
	ds := NewObjBST(machine.Mem, 128)
	ds.Populate(machine.Mem, NewRand(5))
	dcfg := DriverConfig{Ops: 50, UpdatePercent: 20, Seed: 9}
	prog := func(c *sim.Ctx) {
		if err := RunThread(sys.Thread(c), ds, dcfg); err != nil {
			t.Errorf("objbst: %v", err)
		}
	}
	machine.Run(prog, prog, prog, prog)
	if machine.Stats.Commits() != 4*50 {
		t.Fatalf("commits = %d", machine.Stats.Commits())
	}
}

func TestBTreeValueRefresh(t *testing.T) {
	m := mem.New()
	bt := NewBTree(m, 0)
	bt.keySpace = 64
	d := Direct{M: m}
	if !bt.Insert(d, 5, 10) {
		t.Fatal("first insert should report new")
	}
	if bt.Insert(d, 5, 20) {
		t.Fatal("second insert of the same key should report refresh")
	}
	if v, ok := bt.Lookup(d, 5); !ok || v != 20 {
		t.Fatalf("lookup = (%d,%v), want (20,true)", v, ok)
	}
}

// failingDS always fails its operation; RunThread must surface the error
// with context rather than swallowing it.
type failingDS struct{}

func (failingDS) Name() string                        { return "failing" }
func (failingDS) Populate(m *mem.Memory, r *Rand)     {}
func (failingDS) KeySpace() uint64                    { return 1 }
func (failingDS) Op(tx tm.Txn, r *Rand, u bool) error { return ErrTableFull }

func TestRunThreadPropagatesErrors(t *testing.T) {
	cfg := sim.DefaultConfig(1)
	machine := sim.New(cfg)
	sys := stm.New(machine, tm.Config{Granularity: tm.LineGranularity})
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		err := RunThread(th, failingDS{}, DriverConfig{Ops: 3, UpdatePercent: 0, Seed: 1})
		if err == nil {
			t.Error("expected the op error to propagate")
		}
	})
}

// Intn's n > 0 precondition: n == 0 used to reach the generator's modulo
// and crash with a bare integer-divide-by-zero deep in a workload; now it
// panics at the call site with a message naming the contract.
func TestRandIntnZeroPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Intn(0) did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "Intn(0)") {
			t.Fatalf("panic %v, want the documented Intn(0) message", r)
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandIntnOne(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 100; i++ {
		if got := r.Intn(1); got != 0 {
			t.Fatalf("Intn(1) = %d, want 0", got)
		}
	}
}
