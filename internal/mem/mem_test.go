package mem

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestAllocAlignment(t *testing.T) {
	m := New()
	for _, align := range []uint64{8, 16, 64, 256} {
		addr := m.Alloc(24, align)
		if addr%align != 0 {
			t.Errorf("Alloc(24, %d) = %#x, not aligned", align, addr)
		}
	}
}

func TestAllocDistinct(t *testing.T) {
	m := New()
	a := m.Alloc(64, 8)
	b := m.Alloc(64, 8)
	if b < a+64 {
		t.Fatalf("allocations overlap: a=%#x b=%#x", a, b)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New()
	addr := m.Alloc(128, 8)
	for i := uint64(0); i < 16; i++ {
		m.Store(addr+i*8, i*i+1)
	}
	for i := uint64(0); i < 16; i++ {
		if got := m.Load(addr + i*8); got != i*i+1 {
			t.Errorf("word %d: got %d, want %d", i, got, i*i+1)
		}
	}
}

func TestZeroDefault(t *testing.T) {
	m := New()
	addr := m.Alloc(64, 8)
	if got := m.Load(addr); got != 0 {
		t.Fatalf("fresh allocation reads %d, want 0", got)
	}
	m.Store(addr, 7)
	m.Store(addr, 0)
	if got := m.Load(addr); got != 0 {
		t.Fatalf("after storing 0, read %d", got)
	}
}

func TestUnalignedAccessPanics(t *testing.T) {
	m := New()
	addr := m.Alloc(64, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned access did not panic")
		}
	}()
	m.Load(addr + 4)
}

func TestUnallocatedAccessPanics(t *testing.T) {
	m := New()
	defer func() {
		if recover() == nil {
			t.Fatal("unallocated access did not panic")
		}
	}()
	m.Load(8) // below the allocator base
}

func TestAllocLinesAligned(t *testing.T) {
	m := New()
	m.Alloc(24, 8) // disturb alignment
	base := m.AllocLines(4)
	if base%LineSize != 0 {
		t.Fatalf("AllocLines base %#x not line-aligned", base)
	}
	if !m.Allocated(base + 4*LineSize - 8) {
		t.Fatal("AllocLines did not reserve the full span")
	}
}

func TestLineAddrAndSubBlock(t *testing.T) {
	cases := []struct {
		addr uint64
		line uint64
		sub  uint
	}{
		{0x10000, 0x10000, 0},
		{0x10008, 0x10000, 0},
		{0x10010, 0x10000, 1},
		{0x10038, 0x10000, 3},
		{0x1003f, 0x10000, 3},
		{0x10040, 0x10040, 0},
	}
	for _, c := range cases {
		if got := LineAddr(c.addr); got != c.line {
			t.Errorf("LineAddr(%#x) = %#x, want %#x", c.addr, got, c.line)
		}
		if got := SubBlock(c.addr); got != c.sub {
			t.Errorf("SubBlock(%#x) = %d, want %d", c.addr, got, c.sub)
		}
	}
}

// Property: a stored value is always read back until overwritten, across
// arbitrary store sequences within one allocation.
func TestQuickStoreLoad(t *testing.T) {
	m := New()
	const words = 256
	base := m.Alloc(words*8, 8)
	shadow := make(map[uint64]uint64)
	f := func(idx uint16, val uint64) bool {
		addr := base + uint64(idx%words)*8
		m.Store(addr, val)
		shadow[addr] = val
		for a, want := range shadow {
			if m.Load(a) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFootprintGrows(t *testing.T) {
	m := New()
	before := m.Footprint()
	m.Alloc(1024, 8)
	if m.Footprint() < before+1024 {
		t.Fatalf("footprint %d did not grow by allocation size", m.Footprint())
	}
}

// privatePages counts the pages of m that have their own backing.
func privatePages(m *Memory) int {
	n := 0
	for _, pg := range m.pages {
		if pg != nil && !m.shared(pg) {
			n++
		}
	}
	return n
}

// checkMemoryModel runs the operations ops encodes on two Memorys and holds
// each to a model that backs every word eagerly. An operation is one byte —
// the high bit picks the Memory, the low four bits the operation — and its
// arguments follow; a stream that runs out reads zeros. It checks that
//   - every Load reads the model: the last value stored, else the line's
//     head word in an AllocLinesHeaded range, else zero; Footprint and
//     Allocated end where the last range does;
//   - a never-stored Alloc or Reserve adds no private page, nor a headed
//     range beyond its two partial pages while its word is the head page's;
//   - Back and Materialize leave no page of their range shared;
//   - the zero page and the head pages are never written, and the two
//     Memorys share no other page.
func checkMemoryModel(t *testing.T, ops []byte) {
	type space struct {
		m      *Memory
		model  map[uint64]uint64 // addr -> last stored (or head) word
		ranges [][2]uint64       // [base, end) of every allocation
	}
	spaces := [2]space{{m: New(), model: map[uint64]uint64{}}, {m: New(), model: map[uint64]uint64{}}}
	next := func() uint64 {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return uint64(b)
	}
	for step := 0; len(ops) > 0; step++ {
		op := next()
		s := &spaces[op>>7]
		m := s.m
		word := func() (uint64, bool) { // a word of some allocation
			if len(s.ranges) == 0 {
				return 0, false
			}
			r := s.ranges[next()%uint64(len(s.ranges))]
			return r[0] + (next()<<8|next())%((r[1]-r[0])/WordSize)*WordSize, true
		}
		added := func(addr, end uint64) {
			s.ranges = append(s.ranges, [2]uint64{addr, end})
			if m.Footprint() != end-base || !m.Allocated(end-WordSize) || m.Allocated(end) {
				t.Fatalf("step %d: Footprint and Allocated disagree with the range [%#x, %#x)", step, addr, end)
			}
		}
		switch op & 15 {
		case 0:
			before, words := privatePages(m), 1+(next()<<8|next())%(3*pageWords)
			a := m.Alloc(words*WordSize, WordSize<<(next()%4))
			added(a, a+words*WordSize)
			if got := privatePages(m); got != before && !m.eager {
				t.Fatalf("step %d: a never-stored Alloc added %d private pages", step, got-before)
			}
		case 1:
			before := privatePages(m)
			n, head := 1+(next()<<8|next())%(3*pageBytes/LineSize), next()%4
			a := m.AllocLinesHeaded(n, head)
			added(a, a+n*LineSize)
			for l := a; l < a+n*LineSize; l += LineSize {
				s.model[l] = head
			}
			if got := privatePages(m); got > before+2 && !m.eager && m.head[0] == head {
				t.Fatalf("step %d: a headed range of %d lines added %d private pages", step, n, got-before)
			}
		case 2, 3, 4, 5, 6:
			if addr, ok := word(); ok {
				v := next()<<8 | next()
				m.Store(addr, v)
				s.model[addr] = v
			}
		case 7, 8, 9, 10, 11:
			if addr, ok := word(); ok {
				if got := m.Load(addr); got != s.model[addr] {
					t.Fatalf("step %d: Load(%#x) = %d, want %d", step, addr, got, s.model[addr])
				}
			}
		case 12:
			before, size := privatePages(m), (1+next())*LineSize
			a := m.Reserve(size)
			added(a, a+(size+pageMask)&^pageMask)
			if got := privatePages(m); got != before {
				t.Fatalf("step %d: Reserve added %d private pages", step, got-before)
			}
		case 13, 14:
			if addr, ok := word(); ok {
				size := min((1+next())*16*WordSize, m.limit-addr)
				m.Back(addr, size)
				for p := addr >> pageShift; p <= (addr+size-1)>>pageShift; p++ {
					if m.shared(m.pages[p]) {
						t.Fatalf("step %d: page %d is still shared after Back", step, p)
					}
				}
			}
		case 15:
			if next() == 0 { // rarely: a Materialized Memory is eager for good
				m.Materialize()
				for i, pg := range m.pages {
					if pg != nil && m.shared(pg) {
						t.Fatalf("step %d: page %d is still shared after Materialize", step, i)
					}
				}
			}
		}
	}
	for i := range spaces {
		s := &spaces[i]
		for _, r := range s.ranges {
			for a := r[0]; a < r[1]; a += WordSize {
				if got := s.m.Load(a); got != s.model[a] {
					t.Fatalf("final sweep: Load(%#x) = %d, want %d", a, got, s.model[a])
				}
			}
		}
		if hp := s.m.head; hp != nil {
			for w := range hp {
				want := uint64(0)
				if w%lineWords == 0 {
					want = hp[0]
				}
				if hp[w] != want {
					t.Fatalf("head page word %d = %d, want %d: the head page was written", w, hp[w], want)
				}
			}
		}
	}
	if zeroPage != (page{}) {
		t.Fatal("the shared zero page was written")
	}
	first := map[*page]bool{}
	for _, pg := range spaces[0].m.pages {
		first[pg] = pg != nil && pg != &zeroPage
	}
	for i, pg := range spaces[1].m.pages {
		if first[pg] {
			t.Fatalf("page %d of the second Memory is a page of the first", i)
		}
	}
}

// FuzzMemoryModel's check over one long seeded stream, which go test runs
// without -fuzz.
func TestLazyBackingMatchesEagerModel(t *testing.T) {
	ops := make([]byte, 20_000)
	rand.New(rand.NewSource(7)).Read(ops)
	checkMemoryModel(t, ops)
}

// After Materialize no allocated page is shared and Alloc backs eagerly, so
// the atomic accessors may run concurrently on plain Alloc-ed memory —
// allocated before or after the call — without allocating or racing. A
// Reserved range stays on the zero page until Back: each worker backs its
// own pages of it while the others store and load elsewhere. Run under
// -race.
func TestMaterializeThenConcurrentAtomics(t *testing.T) {
	m := New()
	const words = 4 * pageWords
	early := m.Alloc(words*WordSize, LineSize)
	m.Store(early, 1) // one page already private, the rest shared
	headed := m.AllocLinesHeaded(words*WordSize/LineSize, 5)
	m.Materialize()
	late := m.Alloc(words*WordSize, LineSize)
	for i, pg := range m.pages {
		if pg != nil && m.shared(pg) {
			t.Fatalf("page %d is still shared after Materialize", i)
		}
	}
	m.StoreAtomic(headed, 6) // the head page's copies are private too
	if m.LoadAtomic(headed) != 6 || m.LoadAtomic(headed+LineSize) != 5 || m.head[lineWords] != 5 {
		t.Fatal("a headed range lost its words, or its head page was written")
	}

	const workers = 4
	m.Alloc(WordSize, WordSize) // leave the bump pointer mid-page
	private, spare := privatePages(m), len(m.spare)
	reserved := m.Reserve(workers*words*WordSize - WordSize)
	if reserved%pageBytes != 0 || !m.Allocated(reserved+workers*words*WordSize-WordSize) ||
		m.Allocated(reserved+workers*words*WordSize) {
		t.Fatalf("Reserve = %#x (limit %#x): not whole pages from a page boundary", reserved, m.limit)
	}
	if got := privatePages(m); got != private {
		t.Fatalf("Reserve after Materialize backed %d pages", got-private)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			own := reserved + w*words*WordSize
			m.Back(own, words*WordSize)
			for i := uint64(0); i < words; i++ {
				m.StoreAtomic(own+i*WordSize, i+1)
			}
			for _, region := range []uint64{early, late} {
				for i := w; i < words; i += workers {
					m.StoreAtomic(region+i*WordSize, i+1)
				}
				for i := uint64(0); i < words; i++ {
					if v := m.LoadAtomic(region + i*WordSize); v != 0 && v != i+1 {
						t.Errorf("word %d of region %#x reads %d", i, region, v)
						return
					}
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	for _, region := range []uint64{early, late, reserved} {
		for i := uint64(0); i < words; i++ {
			if v := m.LoadAtomic(region + i*WordSize); v != i+1 {
				t.Fatalf("word %d of region %#x reads %d, want %d", i, region, v, i+1)
			}
		}
	}
	m.Back(reserved, workers*words*WordSize) // every page already backed: a no-op
	if got, want := privatePages(m), private+workers*words/pageWords; got != want {
		t.Fatalf("%d private pages after backing the reserve, want %d", got, want)
	}
	if len(m.spare) != spare {
		t.Fatal("Back carved pages from Store's chunk")
	}
	if zeroPage != (page{}) {
		t.Fatal("the shared zero page was written")
	}
}

// An allocation whose size wraps the address arithmetic must panic naming
// the size, not return the address the next allocation gets too: one size
// wraps when rounded to words, the other when added to the base.
func TestAllocOverflowPanics(t *testing.T) {
	for _, size := range []uint64{^uint64(0) - 3, ^uint64(0) - 0xffff} {
		m := New()
		m.Alloc(WordSize, WordSize)
		func() {
			defer func() {
				if r := fmt.Sprint(recover()); !strings.Contains(r, fmt.Sprint(size)) {
					t.Errorf("Alloc(%d) panicked with %q, want the size named", size, r)
				}
			}()
			m.Alloc(size, WordSize)
		}()
	}
}

// No allocation reaches AddrLimit: Alloc and Reserve both refuse with
// ErrAddressSpace before the page table grows.
func TestAllocPastAddrLimitPanics(t *testing.T) {
	for name, alloc := range map[string]func(m *Memory){
		"Alloc":   func(m *Memory) { m.Alloc(AddrLimit-base, WordSize) },
		"Reserve": func(m *Memory) { m.Reserve(AddrLimit) },
	} {
		m := New()
		m.Alloc(WordSize, WordSize)
		func() {
			defer func() {
				if err, _ := recover().(error); !errors.Is(err, ErrAddressSpace) {
					t.Errorf("%s past AddrLimit panicked with %v, want ErrAddressSpace", name, err)
				}
			}()
			alloc(m)
		}()
	}
}

func TestStoreAtomicBeforeMaterializePanics(t *testing.T) {
	m := New()
	headed := m.AllocLinesHeaded(pageBytes/LineSize, 1) // one whole page
	zeroed := m.Alloc(64, 8)
	for _, addr := range []uint64{zeroed, headed} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("StoreAtomic at %#x, on a shared page, did not panic", addr)
				}
			}()
			m.StoreAtomic(addr, 1)
		}()
	}
}

// Alloc rounds a small alignment up to a word and rejects one that is not
// a power of two; a zero-size allocation still gets a word of its own, and
// backing an empty range is a no-op.
func TestAllocAlignmentAndEmptyRanges(t *testing.T) {
	m := New()
	a, b := m.Alloc(0, 1), m.Alloc(8, 2)
	if a%WordSize != 0 || b != a+WordSize {
		t.Errorf("Alloc(0, 1) = %#x, Alloc(8, 2) = %#x: want word-aligned, one word apart", a, b)
	}
	m.Back(b, 0)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "not a power of two") {
			t.Errorf("Alloc(8, 24) recovered %v, want a power-of-two panic", r)
		}
	}()
	m.Alloc(8, 24)
}
