package native

import "math/bits"

// writeIndex maps an address to the index of its newest entry in a Thread's
// write log, open-addressed with linear probing over generation-stamped
// slots. A slot holds only an entry index; it answers for addr iff its
// generation is current, the index is inside the log and that entry's
// address is addr. Forgetting everything is a generation increment, and
// truncating the log (nested rollback) kills the slots that pointed past the
// cut with no delete; only an address that keeps an older entry needs its
// slot pointed back (writeEntry.prev).
//
// Slots stamped in this generation are never unstamped, so probe chains do
// not break; set and lookup both take the first slot on the chain that
// answers for addr, so a slot a rollback left stale that later answers again
// is simply the one both keep using.
type writeIndex struct {
	slots []wslot // power-of-two length
	shift uint    // 64 - log2(len(slots))
	gen   uint32  // current generation, never 0
	used  int     // slots stamped this generation (live or not)
}

type wslot struct{ gen, ix uint32 }

const writeIndexMinSlots = 128

func newWriteIndex() writeIndex {
	x := writeIndex{gen: 1}
	x.resize(writeIndexMinSlots)
	return x
}

// resize installs an empty table of n slots, n a power of two.
func (x *writeIndex) resize(n int) {
	x.slots = make([]wslot, n)
	x.shift = uint(64 - bits.TrailingZeros(uint(n)))
}

// reset forgets every address.
func (x *writeIndex) reset() {
	x.used = 0
	if x.gen++; x.gen == 0 { // wrapped: generation-0 stamps would read as live
		clear(x.slots)
		x.gen = 1
	}
}

// slot returns the first slot on addr's probe chain that answers for addr,
// or else the unstamped slot that ends the chain. The load-factor bound in
// set guarantees one exists.
func (x *writeIndex) slot(writes []writeEntry, addr uint64) *wslot {
	mask := uint64(len(x.slots) - 1)
	for i := (addr >> 3) * 0x9e3779b97f4a7c15 >> x.shift; ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.gen != x.gen || (int(s.ix) < len(writes) && writes[s.ix].addr == addr) {
			return s
		}
	}
}

// lookup returns the index of addr's newest entry in writes, or -1.
func (x *writeIndex) lookup(writes []writeEntry, addr uint64) int {
	if s := x.slot(writes, addr); s.gen == x.gen {
		return int(s.ix)
	}
	return -1
}

// set points addr at entry ix — the entry about to be appended, or on
// rollback the older one to fall back to — and returns the entry it pointed
// at before, or -1.
func (x *writeIndex) set(writes []writeEntry, addr uint64, ix int) (prev int) {
	s := x.slot(writes, addr)
	if s.gen == x.gen {
		prev, s.ix = int(s.ix), uint32(ix)
		return prev
	}
	if 2*(x.used+1) > len(x.slots) {
		x.rebuild(writes)
		s = x.slot(writes, addr)
	}
	*s = wslot{gen: x.gen, ix: uint32(ix)}
	x.used++
	return -1
}

// rebuild re-indexes the log into a table with room to spare: twice the
// size, unless the table is only littered with slots of rolled-back entries.
func (x *writeIndex) rebuild(writes []writeEntry) {
	if 4*len(writes) >= len(x.slots) {
		x.resize(2 * len(x.slots))
	}
	x.reset()
	for i, w := range writes {
		x.set(writes, w.addr, i)
	}
}
