package workloads

import (
	"errors"
	"fmt"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/tm"
)

// Hashtable is an open-addressing hash table with double hashing. Keys and
// values live in two parallel arrays so a successful lookup touches two
// unrelated cache lines and probes jump across lines — reproducing the
// paper's observation that "the hashing function spreads nodes across
// buckets, so traversing a single bucket leads to poor cache behavior"
// (cache reuse < 3%).
type Hashtable struct {
	slots    uint64 // power of two
	keys     uint64 // base address of the key array
	values   uint64 // base address of the value array
	keySpace uint64
	initial  uint64 // elements inserted by Populate
}

// Slot sentinels (stored keys are offset by keyBias to stay clear).
const (
	slotEmpty     = 0
	slotTombstone = 1
	keyBias       = 2
)

// ErrTableFull is returned when an insert cannot find a free slot.
var ErrTableFull = errors.New("workloads: hashtable full")

// Application compute charged per operation: the hash computation and the
// per-probe comparison/index arithmetic. These model the instructions a
// real hashtable spends between memory accesses, so relative overheads of
// the TM schemes are not inflated by a zero-work baseline.
const (
	hashCost  = 12
	probeCost = 4
)

// NewHashtable allocates a table with the given number of slots (rounded
// up to a power of two) in simulated memory.
func NewHashtable(m *mem.Memory, slots uint64) *Hashtable {
	n := uint64(1)
	for n < slots {
		n <<= 1
	}
	return &Hashtable{
		slots:    n,
		keys:     m.Alloc(n*mem.WordSize, mem.LineSize),
		values:   m.Alloc(n*mem.WordSize, mem.LineSize),
		keySpace: n, // half load factor after Populate
		initial:  n / 2,
	}
}

// Name identifies the workload.
func (h *Hashtable) Name() string { return "hashtable" }

// KeySpace returns the key universe size.
func (h *Hashtable) KeySpace() uint64 { return h.keySpace }

func (h *Hashtable) hash(key uint64) (start, stride uint64) {
	x := key * 0x9e3779b97f4a7c15
	start = (x >> 32) & (h.slots - 1)
	// Odd, so coprime with 2^k; 0 only for a one-slot table, whose every
	// probe is slot 0 anyway.
	stride = ((x >> 17) | 1) & (h.slots - 1)
	return start, stride
}

func (h *Hashtable) keyAddr(slot uint64) uint64 { return h.keys + slot*mem.WordSize }

func (h *Hashtable) valAddr(slot uint64) uint64 { return h.values + slot*mem.WordSize }

// Lookup returns the value stored for key.
func (h *Hashtable) Lookup(tx tm.Txn, key uint64) (uint64, bool) {
	start, stride := h.hash(key)
	tx.Exec(hashCost)
	for i := uint64(0); i < h.slots; i++ {
		slot := (start + i*stride) & (h.slots - 1)
		tx.Exec(probeCost)
		k := tx.Load(h.keyAddr(slot))
		if k == slotEmpty {
			return 0, false
		}
		if k == key+keyBias {
			return tx.Load(h.valAddr(slot)), true
		}
	}
	return 0, false
}

// Insert stores key→val, returning false if the key was already present
// (in which case the value is refreshed).
func (h *Hashtable) Insert(tx tm.Txn, key, val uint64) (bool, error) {
	start, stride := h.hash(key)
	tx.Exec(hashCost)
	firstFree := uint64(1) << 63
	for i := uint64(0); i < h.slots; i++ {
		slot := (start + i*stride) & (h.slots - 1)
		tx.Exec(probeCost)
		k := tx.Load(h.keyAddr(slot))
		switch k {
		case slotEmpty:
			if firstFree == uint64(1)<<63 {
				firstFree = slot
			}
			tx.Store(h.keyAddr(firstFree), key+keyBias)
			tx.Store(h.valAddr(firstFree), val)
			return true, nil
		case slotTombstone:
			if firstFree == uint64(1)<<63 {
				firstFree = slot
			}
		case key + keyBias:
			tx.Store(h.valAddr(slot), val)
			return false, nil
		}
	}
	if firstFree != uint64(1)<<63 {
		tx.Store(h.keyAddr(firstFree), key+keyBias)
		tx.Store(h.valAddr(firstFree), val)
		return true, nil
	}
	return false, ErrTableFull
}

// Delete removes key, returning whether it was present.
func (h *Hashtable) Delete(tx tm.Txn, key uint64) bool {
	start, stride := h.hash(key)
	tx.Exec(hashCost)
	for i := uint64(0); i < h.slots; i++ {
		slot := (start + i*stride) & (h.slots - 1)
		tx.Exec(probeCost)
		k := tx.Load(h.keyAddr(slot))
		if k == slotEmpty {
			return false
		}
		if k == key+keyBias {
			tx.Store(h.keyAddr(slot), slotTombstone)
			return true
		}
	}
	return false
}

// Populate inserts the initial elements directly.
func (h *Hashtable) Populate(m *mem.Memory, r *Rand) {
	d := Direct{M: m}
	inserted := uint64(0)
	for inserted < h.initial {
		ok, err := h.Insert(d, r.Intn(h.keySpace), r.Next())
		if err != nil {
			panic(err)
		}
		if ok {
			inserted++
		}
	}
}

// CheckInvariants scans the table through raw memory and verifies chain
// membership: every occupied slot's key must be reachable along its own
// double-hashing probe sequence without crossing an empty slot first
// (otherwise Lookup can no longer find it), no key may occur twice, and
// stored keys must lie in the key universe.
func (h *Hashtable) CheckInvariants(m *mem.Memory) error {
	d := Direct{M: m}
	for slot := uint64(0); slot < h.slots; slot++ {
		k := d.Load(h.keyAddr(slot))
		if k == slotEmpty || k == slotTombstone {
			continue
		}
		key := k - keyBias
		if key >= h.keySpace {
			return fmt.Errorf("hashtable: slot %d holds key %d outside key space %d", slot, key, h.keySpace)
		}
		start, stride := h.hash(key)
		reached := false
		for i := uint64(0); i < h.slots; i++ {
			s := (start + i*stride) & (h.slots - 1)
			ks := d.Load(h.keyAddr(s))
			if s == slot {
				reached = true
				break
			}
			if ks == slotEmpty {
				break
			}
			if ks == k {
				return fmt.Errorf("hashtable: key %d stored twice (slots %d and %d)", key, s, slot)
			}
		}
		if !reached {
			return fmt.Errorf("hashtable: slot %d key %d unreachable along its probe chain", slot, key)
		}
	}
	return nil
}

// Op performs one hashtable operation: a lookup, or (update) an insert or
// delete with equal probability, keeping the table near its initial load.
func (h *Hashtable) Op(tx tm.Txn, r *Rand, update bool) error {
	key := r.Intn(h.keySpace)
	if !update {
		h.Lookup(tx, key)
		return nil
	}
	if r.Percent(50) {
		_, err := h.Insert(tx, key, r.Next())
		return err
	}
	h.Delete(tx, key)
	return nil
}
