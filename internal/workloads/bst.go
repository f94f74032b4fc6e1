package workloads

import (
	"fmt"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/stm"
	"hastm.dev/hastm/internal/tm"
)

// BST is an unbalanced binary search tree. Each 32-byte node packs the
// key, value and both child pointers, giving the intermediate intra-
// transaction cache reuse the paper reports for its BST (~38%): every
// visit loads the key and then a child pointer from the same line.
//
// The lock baseline serialises all operations through the structure-wide
// lock — the paper's locking algorithm "locks the root to handle tree
// rotations; thus the locking approach does not scale at all" (Fig 18) —
// while the TM versions conflict only on the records they actually touch.
//
// The tree has two layouts. NewBST packs bare nodes for line-granularity
// conflict detection. NewObjBST lays it out for OBJECT granularity, the
// managed-environment style of §4: every node (and the root holder) is a
// transactional object whose header word is its transaction record, and
// all field accesses go through LoadObj/StoreObj against that header.
// Under an object-granularity TM, conflicts are per node — no false
// sharing with neighbours, and the compiler-friendly barriers of Fig 5/8
// apply. Under a line-granularity TM the same code degenerates to plain
// transactional accesses, so the structure runs under every scheme.
type BST struct {
	root     uint64 // the root holder: a node-shaped cell whose first field is the root pointer
	hdr      uint64 // bytes of object header before a node's fields: 0, or 8 in the object layout
	keySpace uint64
	initial  uint64
}

// BST node field offsets, past the layout's header.
const (
	bstKey   = 0
	bstVal   = 8
	bstLeft  = 16
	bstRight = 24
	bstSize  = 32
)

// visitCost is the application compute per node visit (comparison, branch,
// call overhead), charged so TM overhead ratios are measured against a
// realistic amount of work.
const visitCost = 5

// maxTreeSteps bounds traversals: a consistent tree can never need this
// many steps, so exceeding it means the transaction is a zombie reading a
// transiently cyclic structure; periodic validation will abort it, this
// bound just keeps the walk finite in the meantime.
const maxTreeSteps = 1 << 14

// NewBST allocates a tree that Populate fills with `initial` keys.
func NewBST(m *mem.Memory, initial uint64) *BST {
	return &BST{
		root:     m.Alloc(mem.LineSize, mem.LineSize),
		keySpace: initial * 2,
		initial:  initial,
	}
}

// NewObjBST allocates the object-layout tree.
func NewObjBST(m *mem.Memory, initial uint64) *BST {
	return &BST{
		root:     stm.AllocObject(m, mem.LineSize-8), // root holder object, own line
		hdr:      8,
		keySpace: initial * 2,
		initial:  initial,
	}
}

// Name identifies the workload.
func (b *BST) Name() string {
	if b.hdr != 0 {
		return "objbst"
	}
	return "bst"
}

// KeySpace returns the key universe size.
func (b *BST) KeySpace() uint64 { return b.keySpace }

// load and store access field off of node n through the layout's barrier.
func (b *BST) load(tx tm.Txn, n, off uint64) uint64 {
	if b.hdr != 0 {
		return tx.LoadObj(n, b.hdr+off)
	}
	return tx.Load(n + off)
}

func (b *BST) store(tx tm.Txn, n, off, val uint64) {
	if b.hdr != 0 {
		tx.StoreObj(n, b.hdr+off, val)
	} else {
		tx.Store(n+off, val)
	}
}

func (b *BST) newNode(tx tm.Txn, key, val uint64) uint64 {
	// One node per cache line: with line-granularity conflict detection,
	// co-located nodes would share a transaction record and generate
	// false conflicts on every sibling update.
	n := tx.Alloc(b.hdr+bstSize, mem.LineSize)
	if b.hdr != 0 {
		tx.StoreInit(n, stm.VersionInit) // header record starts shared
	}
	tx.StoreInit(n+b.hdr+bstKey, key)
	tx.StoreInit(n+b.hdr+bstVal, val)
	return n
}

// Lookup returns the value stored for key.
func (b *BST) Lookup(tx tm.Txn, key uint64) (uint64, bool) {
	cur := b.load(tx, b.root, bstKey)
	for steps := 0; cur != 0 && steps < maxTreeSteps; steps++ {
		tx.Exec(visitCost)
		k := b.load(tx, cur, bstKey)
		switch {
		case key == k:
			return b.load(tx, cur, bstVal), true
		case key < k:
			cur = b.load(tx, cur, bstLeft)
		default:
			cur = b.load(tx, cur, bstRight)
		}
	}
	return 0, false
}

// Insert adds key→val, returning false (and refreshing the value) if the
// key already exists. New nodes are allocated and initialised outside
// transactional control; an abort merely leaks the node, as a GC would
// reclaim it.
func (b *BST) Insert(tx tm.Txn, key, val uint64) bool {
	parent := uint64(0)
	parentField := uint64(0)
	cur := b.load(tx, b.root, bstKey)
	for steps := 0; cur != 0 && steps < maxTreeSteps; steps++ {
		tx.Exec(visitCost)
		k := b.load(tx, cur, bstKey)
		switch {
		case key == k:
			b.store(tx, cur, bstVal, val)
			return false
		case key < k:
			parent, parentField = cur, bstLeft
			cur = b.load(tx, cur, bstLeft)
		default:
			parent, parentField = cur, bstRight
			cur = b.load(tx, cur, bstRight)
		}
	}
	n := b.newNode(tx, key, val)
	if parent == 0 {
		b.store(tx, b.root, bstKey, n)
	} else {
		b.store(tx, parent, parentField, n)
	}
	return true
}

// Delete removes key with the standard splice: leaf and one-child cases
// re-link the parent; two-child nodes are overwritten with their in-order
// successor, which is then spliced out.
func (b *BST) Delete(tx tm.Txn, key uint64) bool {
	parent := uint64(0)
	parentField := uint64(0)
	cur := b.load(tx, b.root, bstKey)
	steps := 0
	for cur != 0 && steps < maxTreeSteps {
		steps++
		tx.Exec(visitCost)
		k := b.load(tx, cur, bstKey)
		if key == k {
			break
		}
		if key < k {
			parent, parentField = cur, bstLeft
			cur = b.load(tx, cur, bstLeft)
		} else {
			parent, parentField = cur, bstRight
			cur = b.load(tx, cur, bstRight)
		}
	}
	if cur == 0 {
		return false
	}

	left := b.load(tx, cur, bstLeft)
	right := b.load(tx, cur, bstRight)
	if left != 0 && right != 0 {
		// Two children: find the in-order successor (leftmost of the
		// right subtree), copy it into cur, then splice it out.
		sParent, sField := cur, uint64(bstRight)
		s := right
		for steps = 0; steps < maxTreeSteps; steps++ {
			l := b.load(tx, s, bstLeft)
			if l == 0 {
				break
			}
			sParent, sField = s, bstLeft
			s = l
		}
		b.store(tx, cur, bstKey, b.load(tx, s, bstKey))
		b.store(tx, cur, bstVal, b.load(tx, s, bstVal))
		b.store(tx, sParent, sField, b.load(tx, s, bstRight))
		return true
	}

	child := left
	if child == 0 {
		child = right
	}
	if parent == 0 {
		b.store(tx, b.root, bstKey, child)
	} else {
		b.store(tx, parent, parentField, child)
	}
	return true
}

// Populate inserts the initial keys directly.
func (b *BST) Populate(m *mem.Memory, r *Rand) {
	d := Direct{M: m}
	inserted := uint64(0)
	for inserted < b.initial {
		if b.Insert(d, r.Intn(b.keySpace), r.Next()) {
			inserted++
		}
	}
}

// CheckInvariants walks the tree through raw memory and verifies the
// search invariant: every node's key lies strictly inside the open
// interval its ancestors imply and keys are within the key universe. The
// walk needs no step bound: a node reached twice, by a cycle or by two
// paths, lies on both sides of some ancestor's key, which the bounds reject.
func (b *BST) CheckInvariants(m *mem.Memory) error {
	d := Direct{M: m}
	var walk func(node, lo, hi uint64, hasLo, hasHi bool) error
	walk = func(node, lo, hi uint64, hasLo, hasHi bool) error {
		if node == 0 {
			return nil
		}
		k := b.load(d, node, bstKey)
		if k >= b.keySpace {
			return fmt.Errorf("bst: node %#x holds key %d outside key space %d", node, k, b.keySpace)
		}
		if hasLo && k <= lo {
			return fmt.Errorf("bst: ordering violated at node %#x: key %d <= ancestor bound %d", node, k, lo)
		}
		if hasHi && k >= hi {
			return fmt.Errorf("bst: ordering violated at node %#x: key %d >= ancestor bound %d", node, k, hi)
		}
		if err := walk(b.load(d, node, bstLeft), lo, k, hasLo, true); err != nil {
			return err
		}
		return walk(b.load(d, node, bstRight), k, hi, true, hasHi)
	}
	return walk(b.load(d, b.root, bstKey), 0, 0, false, false)
}

// Op performs one BST operation.
func (b *BST) Op(tx tm.Txn, r *Rand, update bool) error {
	key := r.Intn(b.keySpace)
	if !update {
		b.Lookup(tx, key)
		return nil
	}
	if r.Percent(50) {
		b.Insert(tx, key, r.Next())
		return nil
	}
	b.Delete(tx, key)
	return nil
}
