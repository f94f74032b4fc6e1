// Package mem provides the simulated flat physical address space shared by
// all cores of a simulated machine.
//
// The store is word-granular (8-byte words, 8-byte aligned). Data always
// lives here; caches track only metadata (tags, coherence state, mark bits).
// Because the simulator serialises all memory operations in cycle order,
// keeping a single authoritative copy of the data is exact.
// An allocation costs host memory only where it has been stored to: its
// pages share read-only pages until a store copies them; see the page-table
// constants, AllocLinesHeaded, Materialize and Back.
package mem

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
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

// AddrLimit is one past the highest address the allocator hands out: 2³⁸
// bytes less one page, so every line number fits the cache's 32-bit tags
// with room for the prefetcher's next lines (cache.AddrLimit).
const AddrLimit = 1<<38 - pageBytes

// ErrAddressSpace is the named panic of an allocation that would reach
// past AddrLimit or wrap the address arithmetic.
var ErrAddressSpace = errors.New("mem: allocation overflows the address space")

// The backing store is a dense page table over the bump allocator's
// contiguous range: pages[addr>>pageShift][addr/WordSize%pageWords] — the
// simulator's hottest data path, two indexes with no hashing (the second,
// into a fixed-size page, needs no bounds check). A slot may point at a
// shared, read-only page: Alloc points every page it newly covers at the
// one zeroPage, AllocLinesHeaded at the Memory's head page. The first Store
// to a shared page gives it a private copy (two pointer compares on the
// store path, nothing on Load), carved from chunkPages-page chunks so the
// host allocation count stays that of 64 KiB pages.
const (
	pageShift  = 12 // 4 KiB pages
	pageBytes  = 1 << pageShift
	pageMask   = pageBytes - 1
	pageWords  = pageBytes / WordSize
	lineWords  = LineSize / WordSize
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
	// head is the shared page whose every line starts with one word, built
	// by the first AllocLinesHeaded that covers a whole page. Never written.
	head  *page
	eager bool   // latched by Materialize: Alloc backs pages itself
	next  uint64 // next free address (bump pointer)
	// allocated tracks the extent of every allocation so out-of-bounds
	// accesses can be detected in tests.
	limit uint64
}

// New returns an empty address space.
func New() *Memory {
	m := &Memory{next: base, limit: base}
	m.grow(false)
	return m
}

// grow extends the page table to cover every allocated address, in one
// resize however many pages an Alloc spans. New pages read as zero — the
// zeroPage, or fresh backing when back is set — which is Alloc's "memory is
// zeroed" contract. Pages below base stay nil: check rejects those
// addresses before any indexing.
func (m *Memory) grow(back bool) {
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
			if back {
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

// shared reports whether pg is a read-only page other slots may point at:
// the zero page or this Memory's head page. A store must copy it first.
func (m *Memory) shared(pg *page) bool { return pg == &zeroPage || pg == m.head }

// privatise points slot i, which holds a shared page, at a private copy
// carved by newPage; the copy of the zero page is the fresh page itself.
func (m *Memory) privatise(i uint64) *page {
	pg := m.newPage()
	if src := m.pages[i]; src != &zeroPage {
		*pg = *src
	}
	m.pages[i] = pg
	return pg
}

// Materialize gives every allocated page private backing and makes every
// later Alloc do the same, for good: after it no access to that memory
// allocates and no page of it is shared, which concurrent users of the
// atomic accessors need. Reserve is the one exception.
func (m *Memory) Materialize() {
	m.eager = true
	for i, pg := range m.pages {
		if pg != nil && m.shared(pg) {
			m.privatise(uint64(i))
		}
	}
}

// Alloc reserves size bytes aligned to align (which must be a power of two,
// at least WordSize) and returns the base address. Memory is zeroed.
func (m *Memory) Alloc(size, align uint64) uint64 {
	align = max(align, WordSize)
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
	}
	addr := m.bump(size, align, WordSize)
	m.grow(m.eager)
	return addr
}

// bump moves the allocator past size bytes, rounded up to a multiple of
// unit and aligned to align (both powers of two), and returns the base. A
// range that would reach past AddrLimit, or wrap, panics with
// ErrAddressSpace rather than alias the next allocation.
func (m *Memory) bump(size, align, unit uint64) uint64 {
	size = max(size, WordSize) // a zero-size allocation still gets an address of its own
	addr := (m.next + align - 1) &^ (align - 1)
	span := (size + unit - 1) &^ (unit - 1)
	if addr < m.next || span < size || addr+span < addr || addr+span > AddrLimit {
		panic(fmt.Errorf("%w: %d bytes at %#x", ErrAddressSpace, size, addr))
	}
	m.next = addr + span
	m.limit = m.next
	return addr
}

// AllocLines reserves n cache lines, line-aligned, and returns the base
// address. Used for structures that must not share lines (e.g. the
// transaction-record table, whose records are line-aligned "to prevent
// ping-ponging").
func (m *Memory) AllocLines(n uint64) uint64 {
	return m.Alloc(n*LineSize, LineSize)
}

// AllocLinesHeaded is AllocLines with the first word of every line set to
// head and the rest zero. Every whole page of the range points at the
// Memory's shared head page, so the range costs host memory only where it
// is later stored to; the partial first and last pages are stored to here.
// A Memory keeps one head page, for the first head word it is given; a
// call with another word, or after Materialize, stores every line.
func (m *Memory) AllocLinesHeaded(n, head uint64) uint64 {
	addr := m.AllocLines(n)
	end := addr + n*LineSize
	lo, hi := (addr+pageMask)&^pageMask, end&^pageMask // the whole pages
	if lo >= hi || m.eager || !m.headPage(head) {
		lo, hi = end, end
	}
	for a := addr; a < lo; a += LineSize {
		m.Store(a, head)
	}
	for p := lo; p < hi; p += pageBytes {
		m.pages[p>>pageShift] = m.head
	}
	for a := hi; a < end; a += LineSize {
		m.Store(a, head)
	}
	return addr
}

// headPage reports whether the head page starts its lines with head,
// building it for head on first use.
func (m *Memory) headPage(head uint64) bool {
	if m.head == nil {
		m.head = new(page)
		for w := 0; w < pageWords; w += lineWords {
			m.head[w] = head
		}
	}
	return m.head[0] == head
}

// Load returns the word at addr. addr must be word-aligned and inside an
// allocation.
func (m *Memory) Load(addr uint64) uint64 {
	m.check(addr)
	return m.pages[addr>>pageShift][addr/WordSize%pageWords]
}

// Store writes the word at addr, giving its page a private copy on the
// first store to it.
func (m *Memory) Store(addr, val uint64) {
	m.check(addr)
	pg := m.pages[addr>>pageShift]
	if m.shared(pg) {
		pg = m.privatise(addr >> pageShift)
	}
	pg[addr/WordSize%pageWords] = val
}

// LoadAtomic returns the word at addr with an atomic load. The host-native
// backend uses these accessors for every transactional word so concurrent
// goroutines are race-clean. While they are in use the page table must not
// grow (Reserve the range up front), and a page is stored to only once it
// has private backing (Materialize, Back).
func (m *Memory) LoadAtomic(addr uint64) uint64 {
	m.check(addr)
	return atomic.LoadUint64(&m.pages[addr>>pageShift][addr/WordSize%pageWords])
}

// StoreAtomic writes the word at addr with an atomic store.
func (m *Memory) StoreAtomic(addr, val uint64) {
	m.check(addr)
	pg := m.pages[addr>>pageShift]
	if m.shared(pg) {
		panic(fmt.Sprintf("mem: StoreAtomic at %#x: page has no private backing", addr))
	}
	atomic.StoreUint64(&pg[addr/WordSize%pageWords], val)
}

// Reserve allocates size bytes, rounded up to whole pages and page-aligned,
// and returns the base. Every page of the range shares the zero page, even
// after Materialize: the host-native backend reserves its arena here once,
// so the page table never grows during a run, and Backs each piece as a
// thread takes it.
func (m *Memory) Reserve(size uint64) uint64 {
	addr := m.bump(size, pageBytes, pageBytes)
	m.grow(false)
	return addr
}

// Back gives private backing, in one host allocation, to every page of
// [addr, addr+size) that is still shared, copying its contents. It writes
// only those pages' table slots — not the table itself, nor the chunk Store
// carves pages from — so calls on disjoint pages may run concurrently with
// each other and with LoadAtomic/StoreAtomic on other pages.
func (m *Memory) Back(addr, size uint64) {
	if size == 0 {
		return
	}
	last := (addr + size - 1) &^ (WordSize - 1)
	m.check(addr)
	m.check(last)
	first, end := addr>>pageShift, last>>pageShift+1
	n := 0
	for _, pg := range m.pages[first:end] {
		if m.shared(pg) {
			n++
		}
	}
	if n == 0 {
		return
	}
	fresh := make([]page, n)
	for i := first; i < end; i++ {
		if pg := m.pages[i]; m.shared(pg) {
			if pg != &zeroPage {
				fresh[0] = *pg
			}
			m.pages[i] = &fresh[0]
			fresh = fresh[1:]
		}
	}
}

// Allocated reports whether addr falls inside some allocation.
func (m *Memory) Allocated(addr uint64) bool {
	return addr >= base && addr < m.limit
}

// check is one compare with no call, so the four accessors that call it
// inline: the rotate moves a misaligned address's low bits to the top, and
// an address below base wraps, so either fails as one beyond the limit
// does. The panic's message is formatted only if someone reads it.
func (m *Memory) check(addr uint64) {
	if bits.RotateLeft64(addr-base, -3) >= (m.limit-base)/WordSize {
		panic(accessFault{addr, m.limit})
	}
}

// accessFault is the panic of an access to a misaligned or unallocated
// address; limit is the allocator's limit at the time.
type accessFault struct{ addr, limit uint64 }

func (f accessFault) Error() string {
	if f.addr%WordSize != 0 {
		return fmt.Sprintf("mem: unaligned access at %#x", f.addr)
	}
	return fmt.Sprintf("mem: access to unallocated address %#x (limit %#x)", f.addr, f.limit)
}

// LineAddr returns the address of the cache line containing addr.
func LineAddr(addr uint64) uint64 { return addr &^ uint64(LineMask) }

// SubBlock returns the index (0..3) of the 16-byte sub-block of addr within
// its cache line. Mark bits are kept per sub-block.
func SubBlock(addr uint64) uint { return uint((addr & LineMask) >> 4) }
