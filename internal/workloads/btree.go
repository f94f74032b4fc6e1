package workloads

import (
	"fmt"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/tm"
)

// BTree is a B-tree of order 7 (up to 6 keys per node). A node spans two
// cache lines — the count and keys on the first, child pointers on the
// second — so a traversal scans several keys per line, giving the high
// spatial locality the paper measures for its B-tree ("the high cache
// reuse arises in part due to the good spatial locality of the Btree
// keys", ~68%).
//
// Inserts use top-down preemptive splitting, so one downward pass suffices.
// Update operations are a mix of inserts and in-place value updates; delete
// with rebalancing is omitted (documented substitution — it does not change
// the access pattern the experiments measure).
type BTree struct {
	rootCell uint64 // address of the cell holding the root node pointer
	keySpace uint64
	initial  uint64
}

// B-tree node layout.
const (
	btMaxKeys = 6
	btCount   = 0
	btKeys    = 8                // keys[0..5] at +8 .. +48 (line 0)
	btKids    = mem.LineSize     // children[0..6] at +64 .. +112 (line 1)
	btSize    = 2 * mem.LineSize // two cache lines per node
	btValBias = 1                // stored values are val+1 so 0 means "none"
)

// Values are stored alongside keys in a third region of the node? No — to
// keep a node at two lines, the tree maps key → value by storing values in
// leaves' child-pointer slots (leaves have no children). Internal nodes
// found on the downward path never need the value.

// NewBTree allocates a tree that Populate fills with `initial` keys.
func NewBTree(m *mem.Memory, initial uint64) *BTree {
	t := &BTree{
		rootCell: m.Alloc(mem.LineSize, mem.LineSize),
		keySpace: initial * 2,
		initial:  initial,
	}
	m.Store(t.rootCell, newBTNode(workloadsDirect(m), true))
	return t
}

// Name identifies the workload.
func (t *BTree) Name() string { return "btree" }

// KeySpace returns the key universe size.
func (t *BTree) KeySpace() uint64 { return t.keySpace }

// nodeCost/scanCost are the application compute charged per node visit and
// per key comparison, keeping TM overhead ratios realistic.
const (
	nodeCost = 5
	scanCost = 2
)

// Leafness is encoded in the count word's high bit.
const btLeafBit = uint64(1) << 63

// workloadsDirect adapts a Memory to the allocation interface of
// newBTNode for pre-run setup.
func workloadsDirect(m *mem.Memory) tm.Txn { return Direct{M: m} }

func newBTNode(tx tm.Txn, leaf bool) uint64 {
	n := tx.Alloc(btSize, mem.LineSize)
	if leaf {
		tx.StoreInit(n+btCount, btLeafBit)
	}
	return n
}

func btDecode(countWord uint64) (n uint64, leaf bool) {
	return countWord &^ btLeafBit, countWord&btLeafBit != 0
}

func keyAddr(node, i uint64) uint64 { return node + btKeys + i*mem.WordSize }

func kidAddr(node, i uint64) uint64 { return node + btKids + i*mem.WordSize }

// Lookup returns the value stored for key.
func (t *BTree) Lookup(tx tm.Txn, key uint64) (uint64, bool) {
	node := tx.Load(t.rootCell)
	for steps := 0; steps < maxTreeSteps; steps++ {
		tx.Exec(nodeCost)
		cw := tx.Load(node + btCount)
		n, leaf := btDecode(cw)
		i := uint64(0)
		if leaf {
			for i < n {
				tx.Exec(scanCost)
				k := tx.Load(keyAddr(node, i))
				if key == k {
					v := tx.Load(kidAddr(node, i))
					if v == 0 {
						return 0, false
					}
					return v - btValBias, true
				}
				if key < k {
					break
				}
				i++
			}
			return 0, false
		}
		// Internal keys are separators (copied up on leaf splits): equal
		// keys descend right, where the real entry lives in a leaf.
		for i < n {
			tx.Exec(scanCost)
			if key < tx.Load(keyAddr(node, i)) {
				break
			}
			i++
		}
		node = tx.Load(kidAddr(node, i))
		if node == 0 {
			return 0, false
		}
	}
	return 0, false
}

// Insert adds key→val (or refreshes an existing key's value in a leaf),
// splitting full nodes on the way down. Returns true if a new key was
// inserted.
func (t *BTree) Insert(tx tm.Txn, key, val uint64) bool {
	root := tx.Load(t.rootCell)
	if n, _ := btDecode(tx.Load(root + btCount)); n == btMaxKeys {
		// Split the root: new root with one key.
		newRoot := newBTNode(tx, false)
		tx.Store(kidAddr(newRoot, 0), root)
		t.splitChild(tx, newRoot, 0)
		tx.Store(t.rootCell, newRoot)
		root = newRoot
	}
	return t.insertNonFull(tx, root, key, val)
}

// splitChild splits parent's full child at index idx, promoting its median
// key into parent. parent must be non-full.
func (t *BTree) splitChild(tx tm.Txn, parent, idx uint64) {
	child := tx.Load(kidAddr(parent, idx))
	ccw := tx.Load(child + btCount)
	cn, cLeaf := btDecode(ccw)
	mid := cn / 2
	medianKey := tx.Load(keyAddr(child, mid))

	right := newBTNode(tx, cLeaf)
	// Move keys (and children/values) after the median into the new node.
	j := uint64(0)
	for i := mid + 1; i < cn; i, j = i+1, j+1 {
		tx.Store(keyAddr(right, j), tx.Load(keyAddr(child, i)))
		tx.Store(kidAddr(right, j), tx.Load(kidAddr(child, i)))
	}
	if !cLeaf {
		tx.Store(kidAddr(right, j), tx.Load(kidAddr(child, cn)))
	} else {
		// Leaf: the median key moves up but its value must move too; keep
		// the median in the right node instead (B+-tree style) so values
		// always live in leaves.
		for i := j; i > 0; i-- {
			tx.Store(keyAddr(right, i), tx.Load(keyAddr(right, i-1)))
			tx.Store(kidAddr(right, i), tx.Load(kidAddr(right, i-1)))
		}
		tx.Store(keyAddr(right, 0), medianKey)
		tx.Store(kidAddr(right, 0), tx.Load(kidAddr(child, mid)))
		j++
	}
	rightCount := j
	if cLeaf {
		tx.Store(right+btCount, rightCount|btLeafBit)
		tx.Store(child+btCount, mid|btLeafBit)
	} else {
		tx.Store(right+btCount, rightCount)
		tx.Store(child+btCount, mid)
	}

	// Shift parent's keys/children right of idx and link the new child.
	pn, _ := btDecode(tx.Load(parent + btCount))
	for i := pn; i > idx; i-- {
		tx.Store(keyAddr(parent, i), tx.Load(keyAddr(parent, i-1)))
		tx.Store(kidAddr(parent, i+1), tx.Load(kidAddr(parent, i)))
	}
	tx.Store(keyAddr(parent, idx), medianKey)
	tx.Store(kidAddr(parent, idx+1), right)
	tx.Store(parent+btCount, pn+1)
}

func (t *BTree) insertNonFull(tx tm.Txn, node, key, val uint64) bool {
	for steps := 0; steps < maxTreeSteps; steps++ {
		tx.Exec(nodeCost)
		cw := tx.Load(node + btCount)
		n, leaf := btDecode(cw)
		if leaf {
			// Find position; refresh if present.
			i := uint64(0)
			for i < n {
				tx.Exec(scanCost)
				k := tx.Load(keyAddr(node, i))
				if key == k {
					tx.Store(kidAddr(node, i), val+btValBias)
					return false
				}
				if key < k {
					break
				}
				i++
			}
			for j := n; j > i; j-- {
				tx.Store(keyAddr(node, j), tx.Load(keyAddr(node, j-1)))
				tx.Store(kidAddr(node, j), tx.Load(kidAddr(node, j-1)))
			}
			tx.Store(keyAddr(node, i), key)
			tx.Store(kidAddr(node, i), val+btValBias)
			tx.Store(node+btCount, (n+1)|btLeafBit)
			return true
		}
		// Internal: pick the child, splitting it first if full.
		i := uint64(0)
		for i < n {
			tx.Exec(scanCost)
			k := tx.Load(keyAddr(node, i))
			if key < k {
				break
			}
			i++
		}
		child := tx.Load(kidAddr(node, i))
		if cn, _ := btDecode(tx.Load(child + btCount)); cn == btMaxKeys {
			t.splitChild(tx, node, i)
			// Re-aim: the promoted median may redirect us.
			if key >= tx.Load(keyAddr(node, i)) {
				i++
			}
			child = tx.Load(kidAddr(node, i))
		}
		node = child
	}
	return false
}

// CheckInvariants walks the tree through raw memory and verifies the
// B-tree shape properties maintained by top-down preemptive splitting:
// node fill within [1, btMaxKeys] (root may be emptier), keys strictly
// increasing within a node and confined to the half-open window
// [lo, hi) the ancestors' separators imply (equal keys descend right, so
// the lower bound is inclusive), non-nil children on internal nodes, and
// all leaves at the same depth.
func (t *BTree) CheckInvariants(m *mem.Memory) error {
	d := Direct{M: m}
	root := d.Load(t.rootCell)
	if root == 0 {
		return fmt.Errorf("btree: nil root")
	}
	leafDepth := -1
	var walk func(node uint64, depth int, lo, hi uint64, hasLo, hasHi bool) error
	walk = func(node uint64, depth int, lo, hi uint64, hasLo, hasHi bool) error {
		if depth > maxTreeSteps {
			return fmt.Errorf("btree: walk deeper than %d nodes (a cycle through an empty root)", maxTreeSteps)
		}
		n, leaf := btDecode(d.Load(node + btCount))
		if n > btMaxKeys {
			return fmt.Errorf("btree: node %#x holds %d keys (max %d)", node, n, btMaxKeys)
		}
		if n == 0 && node != root {
			return fmt.Errorf("btree: non-root node %#x is empty", node)
		}
		var prev uint64
		for i := uint64(0); i < n; i++ {
			k := d.Load(keyAddr(node, i))
			if k >= t.keySpace {
				return fmt.Errorf("btree: node %#x key %d outside key space %d", node, k, t.keySpace)
			}
			if i > 0 && k <= prev {
				return fmt.Errorf("btree: node %#x keys out of order (%d then %d)", node, prev, k)
			}
			if hasLo && k < lo {
				return fmt.Errorf("btree: node %#x key %d below ancestor bound %d", node, k, lo)
			}
			if hasHi && k >= hi {
				return fmt.Errorf("btree: node %#x key %d not below ancestor bound %d", node, k, hi)
			}
			prev = k
		}
		if leaf {
			if leafDepth < 0 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("btree: leaf %#x at depth %d, expected %d (unbalanced)", node, depth, leafDepth)
			}
			return nil
		}
		for i := uint64(0); i <= n; i++ {
			child := d.Load(kidAddr(node, i))
			if child == 0 {
				return fmt.Errorf("btree: internal node %#x has nil child %d", node, i)
			}
			clo, cHasLo := lo, hasLo
			if i > 0 {
				clo, cHasLo = d.Load(keyAddr(node, i-1)), true
			}
			chi, cHasHi := hi, hasHi
			if i < n {
				chi, cHasHi = d.Load(keyAddr(node, i)), true
			}
			if err := walk(child, depth+1, clo, chi, cHasLo, cHasHi); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root, 0, 0, 0, false, false)
}

// Populate inserts the initial keys directly.
func (t *BTree) Populate(m *mem.Memory, r *Rand) {
	d := Direct{M: m}
	inserted := uint64(0)
	for inserted < t.initial {
		if t.Insert(d, r.Intn(t.keySpace), r.Next()) {
			inserted++
		}
	}
}

// Op performs one B-tree operation: a lookup, or (update) an insert or an
// in-place value refresh.
func (t *BTree) Op(tx tm.Txn, r *Rand, update bool) error {
	key := r.Intn(t.keySpace)
	if !update {
		t.Lookup(tx, key)
		return nil
	}
	t.Insert(tx, key, r.Next())
	return nil
}
