// Package mem provides the simulated flat physical address space shared by
// all cores of a simulated machine.
//
// The store is word-granular (8-byte words, 8-byte aligned). Data always
// lives here; caches track only metadata (tags, coherence state, mark bits).
// Because the simulator serialises all memory operations in cycle order,
// keeping a single authoritative copy of the data is exact.
// An allocation costs host memory only where it has been stored to; see the
// page-table constants and Materialize.
package mem

import (
	"fmt"
	"sync/atomic"

	"hastm.dev/hastm/internal/spec"
)

// WordSize is the size in bytes of the addressable unit.
const WordSize = 8

// LineSize is the cache-line size in bytes, fixed at 64 as in the paper.
const LineSize = 64

// LineMask extracts the line-offset bits of an address.
const LineMask = LineSize - 1

// base is the first address handed out by the allocator. Address 0 is kept
// unmapped so that a zero value read through a stray pointer faults loudly.
const base = 0x10000

// The backing store is a dense page table over the bump allocator's
// contiguous range: pages[addr>>pageShift][addr/WordSize%pageWords] — the
// simulator's hottest data path, two indexes with no hashing (the second,
// into a fixed-size page, needs no bounds check). Alloc points every page
// it newly covers at the one shared zeroPage, and the first Store to a page
// gives it private backing (one pointer compare on the store path, nothing
// on Load), carved from chunkPages-page chunks so the host allocation count
// stays that of 64 KiB pages.
const (
	pageShift  = 12 // 4 KiB pages
	pageBytes  = 1 << pageShift
	pageMask   = pageBytes - 1
	pageWords  = pageBytes / WordSize
	chunkPages = 16
)

type page [pageWords]uint64

// zeroPage backs every allocated page no store has reached yet. It is
// shared by every Memory and never written.
var zeroPage page

// Memory is a flat simulated address space with a bump allocator.
//
// Memory is not safe for concurrent use; the simulator serialises access.
type Memory struct {
	pages []*page
	spare []page // pages of the current chunk not yet handed out
	eager bool   // latched by Materialize: grow backs pages itself
	next  uint64 // next free address (bump pointer)
	// allocated tracks the extent of every allocation so out-of-bounds
	// accesses can be detected in tests.
	limit uint64

	// NUMA placement state (SetPlacement); sockets == 0 means flat.
	sockets   int
	placement Placement
	homes     []int8 // home socket per placement page; -1 = unassigned
}

// New returns an empty address space.
func New() *Memory {
	m := &Memory{next: base, limit: base}
	m.grow()
	return m
}

// grow extends the page table to cover every allocated address, in one
// resize however many pages an Alloc spans. New pages read as zero — the
// zeroPage, or fresh backing once eager — which is Alloc's "memory is
// zeroed" contract. Pages below base stay nil: check rejects those
// addresses before any indexing.
func (m *Memory) grow() {
	want := int((m.limit + pageMask) >> pageShift)
	if want > cap(m.pages) {
		pages := make([]*page, len(m.pages), max(want, 2*cap(m.pages)))
		copy(pages, m.pages)
		m.pages = pages
	}
	for i := len(m.pages); i < want; i++ {
		var pg *page
		if i >= base>>pageShift {
			pg = &zeroPage
			if m.eager {
				pg = m.newPage()
			}
		}
		m.pages = append(m.pages, pg)
	}
}

// newPage carves one zeroed private page out of the current chunk.
func (m *Memory) newPage() *page {
	if len(m.spare) == 0 {
		m.spare = make([]page, chunkPages)
	}
	pg := &m.spare[0]
	m.spare = m.spare[1:]
	return pg
}

// Materialize gives every allocated page private backing and makes all
// later growth do the same, for good: after it no access allocates and no
// page is shared, which concurrent users of the atomic accessors need.
func (m *Memory) Materialize() {
	m.eager = true
	for i, pg := range m.pages {
		if pg == &zeroPage {
			m.pages[i] = m.newPage()
		}
	}
}

// Alloc reserves size bytes aligned to align (which must be a power of two,
// at least WordSize) and returns the base address. Memory is zeroed.
func (m *Memory) Alloc(size, align uint64) uint64 {
	if align < WordSize {
		align = WordSize
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
	}
	if size == 0 {
		size = WordSize
	}
	addr := (m.next + align - 1) &^ (align - 1)
	m.next = addr + ((size + WordSize - 1) &^ (WordSize - 1))
	m.limit = m.next
	m.grow()
	return addr
}

// AllocLines reserves n cache lines, line-aligned, and returns the base
// address. Used for structures that must not share lines (e.g. the
// transaction-record table, whose records are line-aligned "to prevent
// ping-ponging").
func (m *Memory) AllocLines(n uint64) uint64 {
	return m.Alloc(n*LineSize, LineSize)
}

// Load returns the word at addr. addr must be word-aligned and inside an
// allocation.
func (m *Memory) Load(addr uint64) uint64 {
	m.check(addr)
	return m.pages[addr>>pageShift][addr/WordSize%pageWords]
}

// Store writes the word at addr, backing its page on the first store to it.
func (m *Memory) Store(addr, val uint64) {
	m.check(addr)
	pg := m.pages[addr>>pageShift]
	if pg == &zeroPage {
		pg = m.newPage()
		m.pages[addr>>pageShift] = pg
	}
	pg[addr/WordSize%pageWords] = val
}

// LoadAtomic returns the word at addr with an atomic load. The host-native
// backend uses these accessors for every transactional word so concurrent
// goroutines are race-clean; every page must have private backing
// (Materialize) and the page table itself must not grow (Preallocate) while
// atomic accessors are in use.
func (m *Memory) LoadAtomic(addr uint64) uint64 {
	m.check(addr)
	return atomic.LoadUint64(&m.pages[addr>>pageShift][addr/WordSize%pageWords])
}

// StoreAtomic writes the word at addr with an atomic store.
func (m *Memory) StoreAtomic(addr, val uint64) {
	m.check(addr)
	pg := m.pages[addr>>pageShift]
	if pg == &zeroPage {
		panic(fmt.Sprintf("mem: StoreAtomic at %#x before Materialize", addr))
	}
	atomic.StoreUint64(&pg[addr/WordSize%pageWords], val)
}

// Preallocate reserves size bytes and returns the base of the reserved
// range. The host-native backend carves a fixed arena out of the address
// space up front, after Materialize: once the arena exists neither the page
// table nor its backing grows during a run, so concurrent
// LoadAtomic/StoreAtomic never race with grow() or with a first store.
func (m *Memory) Preallocate(size uint64) uint64 {
	return m.Alloc(size, LineSize)
}

// Allocated reports whether addr falls inside some allocation.
func (m *Memory) Allocated(addr uint64) bool {
	return addr >= base && addr < m.limit
}

// Footprint returns the number of bytes handed out so far.
func (m *Memory) Footprint() uint64 { return m.limit - base }

// check is small enough to inline into the four accessors, so an access is
// one call deep; fault holds the cold half.
func (m *Memory) check(addr uint64) {
	if addr%WordSize != 0 || !m.Allocated(addr) {
		m.fault(addr)
	}
}

func (m *Memory) fault(addr uint64) {
	if addr%WordSize != 0 {
		panic(fmt.Sprintf("mem: unaligned access at %#x", addr))
	}
	panic(fmt.Sprintf("mem: access to unallocated address %#x (limit %#x)", addr, m.limit))
}

// Placement selects how pages are assigned a home socket on a
// multi-socket machine. The home socket matters only on misses that reach
// memory: a miss whose page is homed on another socket pays the remote-
// memory penalty.
type Placement int

const (
	// PlaceInterleave homes placement pages round-robin over the sockets
	// (page index mod sockets) — deterministic and access-order
	// independent, so it is the default.
	PlaceInterleave Placement = iota
	// PlaceFirstTouch homes each page on the socket of the first core
	// whose miss reaches it, the common OS default policy.
	PlaceFirstTouch
)

func (p Placement) String() string {
	switch p {
	case PlaceInterleave:
		return "interleave"
	case PlaceFirstTouch:
		return "first-touch"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// ParsePlacement converts a policy name ("interleave", "first-touch") to a
// Placement.
func ParsePlacement(s string) (Placement, error) {
	switch s {
	case "interleave":
		return PlaceInterleave, nil
	case "first-touch", "firsttouch":
		return PlaceFirstTouch, nil
	default:
		return 0, fmt.Errorf("mem: %w", spec.Unknown("placement policy", s, "interleave", "first-touch"))
	}
}

// PlacementPageShift sets the NUMA placement granularity: 4 KiB pages,
// independent of the backing page table.
const PlacementPageShift = 12

// SetPlacement arms NUMA page-to-socket homing for a machine with the
// given socket count. With sockets <= 1 the address space stays flat and
// HomeSocket always answers 0.
func (m *Memory) SetPlacement(sockets int, p Placement) {
	if sockets <= 1 {
		m.sockets, m.homes = 0, nil
		return
	}
	m.sockets = sockets
	m.placement = p
	m.homes = nil
}

// HomeSocket returns the home socket of the placement page containing
// addr, assigning it on first query: round-robin by page index under
// PlaceInterleave, the querying socket under PlaceFirstTouch. The
// simulator queries only on misses that reach memory, so "first touch"
// means the first miss a page's data forces to memory.
func (m *Memory) HomeSocket(addr uint64, socket int) int {
	if m.sockets <= 1 {
		return 0
	}
	idx := addr >> PlacementPageShift
	for uint64(len(m.homes)) <= idx {
		m.homes = append(m.homes, -1)
	}
	if h := m.homes[idx]; h >= 0 {
		return int(h)
	}
	h := int(idx) % m.sockets
	if m.placement == PlaceFirstTouch {
		h = socket
	}
	m.homes[idx] = int8(h)
	return h
}

// LineAddr returns the address of the cache line containing addr.
func LineAddr(addr uint64) uint64 { return addr &^ uint64(LineMask) }

// SubBlock returns the index (0..3) of the 16-byte sub-block of addr within
// its cache line. Mark bits are kept per sub-block.
func SubBlock(addr uint64) uint { return uint((addr & LineMask) >> 4) }
