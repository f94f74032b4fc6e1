package mem

import (
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
		if pg != nil && pg != &zeroPage {
			n++
		}
	}
	return n
}

// Property: lazily backed memory is indistinguishable from an eagerly
// backed model — every word reads what was last stored (zero if nothing
// was), Footprint and Allocated agree — while the shared zero page stays
// zero and memory nobody stored to costs no private page.
func TestLazyBackingMatchesEagerModel(t *testing.T) {
	type alloc struct{ base, words uint64 }
	r := rand.New(rand.NewSource(7))
	m := New()
	model := map[uint64]uint64{} // addr -> last stored value
	var allocs []alloc
	var limit uint64
	for step := 0; step < 20000; step++ {
		switch k := r.Intn(10); {
		case k == 0 || len(allocs) == 0:
			words := uint64(1 + r.Intn(3*pageWords))
			align := uint64(8) << r.Intn(4)
			a := alloc{m.Alloc(words*WordSize, align), words}
			allocs = append(allocs, a)
			limit = a.base + words*WordSize
			if got := m.Footprint(); got != limit-base {
				t.Fatalf("step %d: Footprint %d, want %d", step, got, limit-base)
			}
			if !m.Allocated(limit-WordSize) || m.Allocated(limit) {
				t.Fatalf("step %d: Allocated disagrees with limit %#x", step, limit)
			}
		case k < 5:
			a := allocs[r.Intn(len(allocs))]
			addr := a.base + uint64(r.Intn(int(a.words)))*WordSize
			val := r.Uint64()
			m.Store(addr, val)
			model[addr] = val
		default:
			a := allocs[r.Intn(len(allocs))]
			addr := a.base + uint64(r.Intn(int(a.words)))*WordSize
			if got := m.Load(addr); got != model[addr] {
				t.Fatalf("step %d: Load(%#x) = %d, want %d", step, addr, got, model[addr])
			}
		}
	}
	for addr := uint64(base); addr < limit; addr += WordSize {
		if got := m.Load(addr); got != model[addr] {
			t.Fatalf("final sweep: Load(%#x) = %d, want %d", addr, got, model[addr])
		}
	}

	before := privatePages(m)
	quiet := m.Alloc(1<<20, LineSize)
	for addr := quiet; addr < quiet+1<<20; addr += pageBytes {
		if m.Load(addr) != 0 {
			t.Fatalf("fresh allocation reads nonzero at %#x", addr)
		}
	}
	if got := privatePages(m); got != before {
		t.Errorf("a never-stored 1 MiB allocation added %d private pages", got-before)
	}
	if zeroPage != (page{}) {
		t.Fatal("the shared zero page was written")
	}
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
	m.Materialize()
	late := m.Alloc(words*WordSize, LineSize)
	for i, pg := range m.pages {
		if pg == &zeroPage {
			t.Fatalf("page %d still shares the zero page after Materialize", i)
		}
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

func TestStoreAtomicBeforeMaterializePanics(t *testing.T) {
	m := New()
	addr := m.Alloc(64, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("StoreAtomic on a shared zero page did not panic")
		}
	}()
	m.StoreAtomic(addr, 1)
}
