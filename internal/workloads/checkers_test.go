package workloads

import (
	"errors"
	"strings"
	"testing"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/tm"
)

// The invariant checkers are stronger than the structures: no correct run
// trips any of their failure branches. Each case below writes one
// corrupting word (two for a cycle) through Direct and asserts the named
// error, so a branch that stopped detecting its corruption fails here.

func wantErr(t *testing.T, name string, err error, want string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%s: err = %v, want one containing %q", name, err, want)
	}
}

// smallBST holds 8 at the root, 4 and 12 below it, and 2, 6, 10, 14 as
// leaves.
func smallBST() (*BST, Direct, uint64) {
	m := mem.New()
	b, d := NewBST(m, 8), Direct{M: m}
	for _, k := range []uint64{8, 4, 12, 2, 6, 10, 14} {
		b.Insert(d, k, k)
	}
	return b, d, b.load(d, b.root, bstKey)
}

func TestBSTCheckerCatchesCorruption(t *testing.T) {
	for _, c := range []struct {
		name, want string
		corrupt    func(b *BST, d Direct, root uint64)
	}{
		{"key outside key space", "outside key space", func(b *BST, d Direct, root uint64) {
			b.store(d, root, bstKey, b.keySpace)
		}},
		{"right child not above its parent", "<= ancestor bound", func(b *BST, d Direct, root uint64) {
			b.store(d, b.load(d, root, bstRight), bstKey, 8)
		}},
		{"left child not below its parent", ">= ancestor bound", func(b *BST, d Direct, root uint64) {
			b.store(d, b.load(d, root, bstLeft), bstKey, 8)
		}},
		{"cycle back to the root", ">= ancestor bound", func(b *BST, d Direct, root uint64) {
			b.store(d, b.load(d, root, bstLeft), bstLeft, root)
		}},
	} {
		b, d, root := smallBST()
		if err := b.CheckInvariants(d.M); err != nil {
			t.Fatalf("%s: intact tree: %v", c.name, err)
		}
		c.corrupt(b, d, root)
		wantErr(t, c.name, b.CheckInvariants(d.M), c.want)
	}
}

// Deleting a root with at most one child re-links the root cell itself.
func TestBSTDeleteRootWithOneChild(t *testing.T) {
	m := mem.New()
	b, d := NewBST(m, 8), Direct{M: m}
	b.Insert(d, 8, 1)
	b.Insert(d, 4, 2)
	if !b.Delete(d, 8) {
		t.Fatal("Delete(8) = false")
	}
	if root := b.load(d, b.root, bstKey); b.load(d, root, bstKey) != 4 {
		t.Errorf("root key = %d, want 4", b.load(d, root, bstKey))
	}
	if err := b.CheckInvariants(m); err != nil {
		t.Error(err)
	}
	if got := NewObjBST(m, 1).Name(); got != "objbst" {
		t.Errorf("NewObjBST(...).Name() = %q, want objbst", got)
	}
}

// btreeWith holds keys scattered keys: with 20, a root with three
// separators over four leaves; with 128, three levels.
func btreeWith(keys uint64) (*BTree, Direct, uint64) {
	m := mem.New()
	bt, d := NewBTree(m, 64), Direct{M: m}
	for k := uint64(0); k < keys; k++ {
		bt.Insert(d, k*57%128, k)
	}
	return bt, d, d.Load(bt.rootCell)
}

func TestBTreeCheckerCatchesCorruption(t *testing.T) {
	leaf := func(d Direct, root, i uint64) uint64 { // root's i'th child, a leaf when the tree has two levels
		return d.Load(kidAddr(root, i))
	}
	for _, c := range []struct {
		name, want string
		corrupt    func(bt *BTree, d Direct, root uint64)
	}{
		{"nil root", "nil root", func(bt *BTree, d Direct, root uint64) { d.Store(bt.rootCell, 0) }},
		{"overfull node", "holds 7 keys", func(bt *BTree, d Direct, root uint64) {
			d.Store(leaf(d, root, 0)+btCount, (btMaxKeys+1)|btLeafBit)
		}},
		{"empty non-root node", "is empty", func(bt *BTree, d Direct, root uint64) {
			d.Store(leaf(d, root, 0)+btCount, btLeafBit)
		}},
		{"key outside key space", "outside key space", func(bt *BTree, d Direct, root uint64) {
			d.Store(keyAddr(leaf(d, root, 0), 0), bt.keySpace)
		}},
		{"keys out of order", "out of order", func(bt *BTree, d Direct, root uint64) {
			l := leaf(d, root, 0)
			d.Store(keyAddr(l, 1), d.Load(keyAddr(l, 0)))
		}},
		{"key below its separator", "below ancestor bound", func(bt *BTree, d Direct, root uint64) {
			d.Store(keyAddr(leaf(d, root, 1), 0), d.Load(keyAddr(root, 0))-1)
		}},
		{"key not below its separator", "not below ancestor bound", func(bt *BTree, d Direct, root uint64) {
			l := leaf(d, root, 0)
			n, _ := btDecode(d.Load(l + btCount))
			d.Store(keyAddr(l, n-1), d.Load(keyAddr(root, 0)))
		}},
		{"nil child", "nil child 0", func(bt *BTree, d Direct, root uint64) { d.Store(kidAddr(root, 0), 0) }},
		{"cycle through an empty root", "walk deeper than", func(bt *BTree, d Direct, root uint64) {
			d.Store(root+btCount, 0)
			d.Store(kidAddr(root, 0), root)
		}},
	} {
		bt, d, root := btreeWith(20)
		if n, leaf := btDecode(d.Load(root + btCount)); leaf || n < 2 {
			t.Fatalf("fixture root holds %d keys, leaf %v: want an internal root with two separators", n, leaf)
		}
		if err := bt.CheckInvariants(d.M); err != nil {
			t.Fatalf("%s: intact tree: %v", c.name, err)
		}
		c.corrupt(bt, d, root)
		wantErr(t, c.name, bt.CheckInvariants(d.M), c.want)
	}

	// Leaves at two depths: the root's last child, an internal node, is
	// replaced by its own last leaf, whose keys still fit the bounds.
	bt, d, root := btreeWith(128)
	n, _ := btDecode(d.Load(root + btCount))
	last := d.Load(kidAddr(root, n))
	ln, isLeaf := btDecode(d.Load(last + btCount))
	if isLeaf {
		t.Fatal("fixture has two levels, want three")
	}
	d.Store(kidAddr(root, n), d.Load(kidAddr(last, ln)))
	wantErr(t, "leaves at two depths", bt.CheckInvariants(d.M), "unbalanced")
}

// A zombie reads a transiently inconsistent tree: Lookup and Insert must
// terminate with "absent" on a cleared value slot, a nil child and a
// cycle, whatever they find.
func TestBTreeOpsSurviveCorruption(t *testing.T) {
	bt, d, root := btreeWith(20)
	l := d.Load(kidAddr(root, 0))
	k := d.Load(keyAddr(l, 0))
	d.Store(kidAddr(l, 0), 0) // the "none" value
	if _, ok := bt.Lookup(d, k); ok {
		t.Errorf("Lookup(%d) of a cleared value slot = present", k)
	}
	d.Store(kidAddr(root, 0), 0)
	if _, ok := bt.Lookup(d, k); ok {
		t.Errorf("Lookup(%d) under a nil child = present", k)
	}
	d.Store(root+btCount, 0)
	d.Store(kidAddr(root, 0), root)
	if _, ok := bt.Lookup(d, k); ok {
		t.Errorf("Lookup(%d) in a cycle = present", k)
	}
	if bt.Insert(d, k, 1) {
		t.Errorf("Insert(%d) in a cycle = inserted", k)
	}
}

// smallHashtable is an 8-slot table holding four keys, at least one of
// them displaced from its home slot; it returns that key's slot and home.
func smallHashtable(t *testing.T) (h *Hashtable, d Direct, slot, home uint64) {
	m := mem.New()
	h, d = NewHashtable(m, 8), Direct{M: m}
	for k := uint64(0); k < 8 && home == slot; k++ {
		if _, err := h.Insert(d, k, k); err != nil {
			t.Fatal(err)
		}
		start, _ := h.hash(k)
		for s := uint64(0); s < h.slots; s++ {
			if d.Load(h.keyAddr(s)) == k+keyBias {
				slot, home = s, start
			}
		}
	}
	if home == slot {
		t.Fatal("no key left its home slot")
	}
	return h, d, slot, home
}

func TestHashtableCheckerCatchesCorruption(t *testing.T) {
	for _, c := range []struct {
		name, want string
		corrupt    func(h *Hashtable, d Direct, slot, home uint64)
	}{
		{"key outside key space", "outside key space", func(h *Hashtable, d Direct, slot, home uint64) {
			d.Store(h.keyAddr(slot), h.keySpace+keyBias)
		}},
		{"chain broken by an empty slot", "unreachable along its probe chain", func(h *Hashtable, d Direct, slot, home uint64) {
			d.Store(h.keyAddr(home), slotEmpty)
		}},
		{"key stored twice", "stored twice", func(h *Hashtable, d Direct, slot, home uint64) {
			d.Store(h.keyAddr(home), d.Load(h.keyAddr(slot)))
		}},
	} {
		h, d, slot, home := smallHashtable(t)
		if err := h.CheckInvariants(d.M); err != nil {
			t.Fatalf("%s: intact table: %v", c.name, err)
		}
		c.corrupt(h, d, slot, home)
		wantErr(t, c.name, h.CheckInvariants(d.M), c.want)
	}
}

// Delete of an absent key in a table with no empty slot probes every slot.
func TestHashtableDeleteFromFullTable(t *testing.T) {
	m := mem.New()
	h, d := NewHashtable(m, 4), Direct{M: m}
	h.keySpace = 8
	for k := uint64(0); k < 4; k++ {
		if _, err := h.Insert(d, k, k); err != nil {
			t.Fatal(err)
		}
	}
	if h.Delete(d, 7) {
		t.Error("Delete of an absent key in a full table = true")
	}
}

// The oracle rejects a run whose structure is corrupt, a replay whose op
// fails or corrupts the replayed structure, and a run whose contents no
// serial replay of its log explains.
func TestOracleRejectsEachMismatch(t *testing.T) {
	build := func(m *mem.Memory) DataStructure { return NewHashtable(m, 16) }
	run := func() (DataStructure, *mem.Memory, *OpLog) {
		m := mem.New()
		ds := build(m)
		ds.Populate(m, NewRand(3))
		log := NewOpLogCap(1)
		log.add(OpRecord{Seed: 5, Update: true})
		return ds, m, log
	}
	boom := errors.New("boom")
	for _, c := range []struct {
		name, want string
		op         opFunc
		corrupt    func(ds DataStructure, m *mem.Memory)
	}{
		{"corrupt run", "invariant violated after run", DataStructure.Op, func(ds DataStructure, m *mem.Memory) {
			h := ds.(*Hashtable)
			for s := uint64(0); s < h.slots; s++ {
				m.Store(h.keyAddr(s), h.keySpace+keyBias)
			}
		}},
		{"failed replay op", "oracle replay of op", func(DataStructure, tm.Txn, *Rand, bool) error { return boom }, nil},
		{"corrupting replay op", "replay violated invariants", func(ds DataStructure, tx tm.Txn, _ *Rand, _ bool) error {
			tx.Store(ds.(*Hashtable).keyAddr(0), ds.KeySpace()+keyBias)
			return nil
		}, nil},
		{"unlogged update", "diverges from sequential oracle", func(DataStructure, tm.Txn, *Rand, bool) error { return nil },
			func(ds DataStructure, m *mem.Memory) { ds.(*Hashtable).Insert(Direct{M: m}, 15, 1) }},
	} {
		ds, m, log := run()
		if c.corrupt != nil {
			c.corrupt(ds, m)
		}
		_, err := verifyOracle(ds, m, build, 3, log, c.op)
		wantErr(t, c.name, err, c.want)
	}
}

// lookupOnly is a Lookuper that DiffOp has no insert or delete for;
// opOnly is a structure without Lookup.
type (
	lookupOnly struct{ *Hashtable }
	opOnly     struct{ failingDS }
)

func TestDiffOpRejectsUnknownStructures(t *testing.T) {
	m := mem.New()
	d := Direct{M: m}
	wantErr(t, "no Lookup", DiffOp(opOnly{}, d, NewRand(1), false), "does not support Lookup")
	seen := map[string]bool{}
	for seed := uint64(1); seed < 16; seed++ {
		if err := DiffOp(lookupOnly{NewHashtable(m, 4)}, d, NewRand(seed), true); err != nil {
			seen[strings.Fields(err.Error())[3]] = true // "insert" or "delete"
		}
	}
	if !seen["insert"] || !seen["delete"] {
		t.Errorf("DiffOp on a structure it cannot update rejected %v, want insert and delete", seen)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "does not support Lookup") {
			t.Errorf("Fingerprint of a structure without Lookup: recovered %v", r)
		}
	}()
	Fingerprint(opOnly{}, d)
}

// failingThread's every atomic block fails, as a protocol that ends a
// transaction with an error (a host Backoff) makes it fail.
type failingThread struct{ tm.Thread }

var errAtomic = errors.New("atomic failed")

func (failingThread) Atomic(func(tm.Txn) error) error { return errAtomic }

func (failingThread) ID() int { return 0 }

func TestDriversReturnAtomicErrors(t *testing.T) {
	m := mem.New()
	for name, err := range map[string]error{
		"RunThreadRecorded":    RunThreadRecorded(failingThread{}, NewBST(m, 4), DriverConfig{Ops: 1}, nil),
		"WriterStorm":          NewWriterStorm(m, 1, 1, 0).RunThread(failingThread{}, 0),
		"Starvation.RunWriter": NewStarvation(m, 1, 0).RunWriter(failingThread{}, 1),
	} {
		if !errors.Is(err, errAtomic) {
			t.Errorf("%s: err = %v, want %v", name, err, errAtomic)
		}
	}
}

// The adversarial cells' verdicts: a lost increment, a reader that never
// committed and a published sum that is not the final one each fail.
func TestAdversarialVerifyFailures(t *testing.T) {
	m := mem.New()
	w := NewWriterStorm(m, 2, 1, 0)
	wantErr(t, "writer storm", w.Verify(m, 1), "want 1")
	s := NewStarvation(m, 2, 0)
	wantErr(t, "starvation, reader never committed", s.Verify(m), "reader never committed")
	m.Store(s.done, 1)
	m.Store(s.addr(0), 3)
	wantErr(t, "starvation, stale sum", s.Verify(m), "published sum 0 != final line sum 3")
}

// Seed 0 would leave xorshift stuck at zero; it is remapped.
func TestRandSeedZero(t *testing.T) {
	if a, b := NewRand(0).Next(), NewRand(0x9e3779b97f4a7c15).Next(); a != b || a == 0 {
		t.Errorf("NewRand(0).Next() = %#x, want the remapped seed's %#x", a, b)
	}
}

// Direct runs populate- and check-time code through the tm.Txn interface:
// a nested block runs in place, OrElse takes its first alternative, and a
// Retry or Abort, which no transaction could honour, fails loudly.
func TestDirectRunsBodiesInPlace(t *testing.T) {
	d := Direct{M: mem.New()}
	addr := d.Alloc(8, 8)
	if err := d.Atomic(func(tx tm.Txn) error { tx.Store(addr, 1); return nil }); err != nil || d.Load(addr) != 1 {
		t.Errorf("Atomic: err %v, word %d, want nil, 1", err, d.Load(addr))
	}
	if err := d.OrElse(); err != nil {
		t.Errorf("OrElse() = %v, want nil", err)
	}
	if err := d.OrElse(func(tm.Txn) error { return errAtomic }, func(tm.Txn) error { return nil }); err != errAtomic {
		t.Errorf("OrElse = %v, want the first alternative's %v", err, errAtomic)
	}
	for name, f := range map[string]func(){"Retry": d.Retry, "Abort": d.Abort} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Direct.%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// A table asked to hold more keys than it has slots fails its populate
// loudly instead of spinning or dropping keys.
func TestHashtablePopulateOverflowPanics(t *testing.T) {
	m := mem.New()
	h := NewHashtable(m, 4)
	h.initial, h.keySpace = 8, 64
	defer func() {
		if r := recover(); r != ErrTableFull {
			t.Errorf("recovered %v, want %v", r, ErrTableFull)
		}
	}()
	h.Populate(m, NewRand(1))
}
