package cache

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"hastm.dev/hastm/internal/mem"
)

func testHierarchy(cores int) *Hierarchy {
	return New(HierarchyConfig{
		Cores: cores,
		L1:    Config{SizeBytes: 1 << 10, Assoc: 2}, // 8 sets, tiny for eviction tests
		L2:    Config{SizeBytes: 4 << 10, Assoc: 4},
	})
}

// dropRecorder captures LineDropped events.
type dropRecorder struct {
	events []dropEvent
}

type dropEvent struct {
	core   int
	line   uint64
	mark   MarkMasks
	reason DropReason
	by     int
}

func (r *dropRecorder) LineDropped(core int, line uint64, mark MarkMasks, reason DropReason, by int) {
	r.events = append(r.events, dropEvent{core, line, mark, reason, by})
}

const base = uint64(0x10000)

func TestMissThenHit(t *testing.T) {
	h := testHierarchy(1)
	res := h.Access(0, base, false)
	if res.L1Hit || res.L2Hit {
		t.Fatalf("first access should miss everywhere: %+v", res)
	}
	res = h.Access(0, base, false)
	if !res.L1Hit {
		t.Fatalf("second access should hit L1: %+v", res)
	}
	res = h.Access(0, base+32, false)
	if !res.L1Hit {
		t.Fatalf("same-line access should hit L1: %+v", res)
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	h := testHierarchy(1)
	h.Access(0, base, false)
	// L1: 8 sets * 64B = 512B stride per set; fill the set with 2 more
	// lines (assoc 2) to evict base.
	setStride := uint64(8 * mem.LineSize)
	h.Access(0, base+setStride, false)
	h.Access(0, base+2*setStride, false)
	if h.Resident(0, base) {
		t.Fatal("base should have been evicted from L1")
	}
	res := h.Access(0, base, false)
	if res.L1Hit {
		t.Fatal("expected L1 miss after eviction")
	}
	if !res.L2Hit {
		t.Fatal("expected L2 hit: the line should still be in the larger L2")
	}
}

func TestRemoteStoreInvalidates(t *testing.T) {
	h := testHierarchy(2)
	rec := &dropRecorder{}
	h.AddDropListener(rec)
	h.Access(0, base, false)
	h.Access(1, base, true) // core 1 writes
	if h.Resident(0, base) {
		t.Fatal("core 0's copy should be invalidated by core 1's store")
	}
	if len(rec.events) != 1 {
		t.Fatalf("want 1 drop event, got %d", len(rec.events))
	}
	e := rec.events[0]
	if e.core != 0 || e.reason != DropInvalidate || e.by != 1 {
		t.Fatalf("unexpected event %+v", e)
	}
}

func TestUpgradeInvalidatesSharers(t *testing.T) {
	h := testHierarchy(2)
	h.Access(0, base, false)
	h.Access(1, base, false) // both shared
	h.Access(0, base, true)  // core 0 upgrades on an L1 hit
	if h.Resident(1, base) {
		t.Fatal("core 1's shared copy must be invalidated on core 0's upgrade")
	}
}

func TestStoreAfterRemoteReadReInvalidates(t *testing.T) {
	h := testHierarchy(2)
	h.Access(0, base, true)  // core 0 modified
	h.Access(1, base, false) // core 1 reads: downgrade core 0 to shared
	h.Access(0, base, true)  // core 0 writes again: must invalidate core 1
	if h.Resident(1, base) {
		t.Fatal("core 1 must lose the line when core 0 re-writes after the downgrade")
	}
}

func TestMarkSetTestClear(t *testing.T) {
	h := testHierarchy(1)
	h.Access(0, base, false)
	if h.TestMark(0, 0, base, 16) {
		t.Fatal("fresh line should be unmarked")
	}
	h.SetMark(0, 0, base, 16)
	if !h.TestMark(0, 0, base, 16) {
		t.Fatal("mark not set")
	}
	if h.TestMark(0, 0, base+16, 16) {
		t.Fatal("mark leaked into the next sub-block")
	}
	if h.TestMark(0, 0, base, 64) {
		t.Fatal("full-line test must AND all four sub-block bits")
	}
	h.SetMark(0, 0, base, 64)
	if !h.TestMark(0, 0, base, 64) {
		t.Fatal("line-granularity mark not set")
	}
	h.ClearMark(0, 0, base, 16)
	if h.TestMark(0, 0, base, 64) {
		t.Fatal("full-line test should fail after clearing one sub-block")
	}
	if !h.TestMark(0, 0, base+16, 48) {
		t.Fatal("other sub-blocks should stay marked")
	}
}

func TestMarkDiesWithEviction(t *testing.T) {
	h := testHierarchy(1)
	rec := &dropRecorder{}
	h.AddDropListener(rec)
	h.Access(0, base, false)
	h.SetMark(0, 0, base, 64)
	setStride := uint64(8 * mem.LineSize)
	h.Access(0, base+setStride, false)
	h.Access(0, base+2*setStride, false) // evicts base
	found := false
	for _, e := range rec.events {
		if e.line == base && e.mark.Any() && e.reason == DropEvict {
			found = true
		}
	}
	if !found {
		t.Fatalf("no marked-evict event recorded: %+v", rec.events)
	}
	// Refill: the mark must not resurrect.
	h.Access(0, base, false)
	if h.TestMark(0, 0, base, 16) {
		t.Fatal("mark bits must not persist across a refill")
	}
}

func TestMarksArePerCore(t *testing.T) {
	h := testHierarchy(2)
	h.Access(0, base, false)
	h.Access(1, base, false)
	h.SetMark(0, 0, base, 16)
	if h.TestMark(1, 0, base, 16) {
		t.Fatal("core 1 sees core 0's mark")
	}
}

func TestClearAllMarks(t *testing.T) {
	h := testHierarchy(1)
	for i := uint64(0); i < 4; i++ {
		a := base + i*mem.LineSize
		h.Access(0, a, false)
		h.SetMark(0, 0, a, 64)
	}
	if got := h.MarkedLines(0, 0); got != 4 {
		t.Fatalf("MarkedLines = %d, want 4", got)
	}
	h.ClearAllMarks(0, 0)
	if got := h.MarkedLines(0, 0); got != 0 {
		t.Fatalf("MarkedLines after clear = %d, want 0", got)
	}
	if !h.Resident(0, base) {
		t.Fatal("ClearAllMarks must not evict lines")
	}
}

// ClearAllMarks is an epoch increment that walks the L1 only when the
// 4-bit epoch wraps: fifteen calls in sixteen leave every stored mark byte
// as it was, and the sixteenth zeroes the cleared (thread, plane)'s byte in
// every way and nothing else. Through two and a half wraps, no mark the
// cleared pair wrote in an earlier epoch may read as live, the other three
// pairs' marks must survive every increment, and dropping a line whose
// only marks are dead reports no mask and counts no marked drop.
func TestMarksDoNotReviveAcrossEpochWrap(t *testing.T) {
	h := smtHierarchy(2)
	rec := &dropRecorder{}
	h.AddDropListener(rec)
	lines := []uint64{base, base + mem.LineSize, base + 2*mem.LineSize}
	for _, a := range lines {
		h.Access(0, a, false)
	}
	const th, pl = 0, 0 // the pair ClearAllMarks is called on
	// Every pair marks lines 1 and 2; only (th, pl) marks line 0.
	for thread := 0; thread < 2; thread++ {
		for plane := 0; plane < NumMarkPlanes; plane++ {
			for i, a := range lines {
				if i > 0 || thread == th && plane == pl {
					h.SetMark(thread, plane, a, mem.LineSize)
				}
			}
		}
	}
	l1, slot := h.l1Of(th), h.slotOf(th)
	before := make([][MaxSMT]MarkMasks, len(l1.state))
	for step := 1; step <= 40; step++ {
		for i := range l1.state {
			before[i] = l1.state[i].mark
		}
		h.ClearAllMarks(th, pl)
		for i := range l1.state {
			want := before[i]
			if step%16 == 0 {
				want[slot][pl] = 0
			}
			if got := l1.state[i].mark; got != want {
				t.Fatalf("step %d: way %d mark bytes %v -> %v, want %v", step, i, before[i], got, want)
			}
		}
		for _, a := range lines {
			if h.TestMark(th, pl, a, mem.LineSize) {
				t.Fatalf("step %d: a mark on %#x revived", step, a)
			}
		}
		if got := h.MarkedLines(th, pl); got != 0 {
			t.Fatalf("step %d: MarkedLines = %d after ClearAllMarks, want 0", step, got)
		}
		for thread := 0; thread < 2; thread++ {
			for plane := 0; plane < NumMarkPlanes; plane++ {
				if thread == th && plane == pl {
					continue
				}
				if got := h.MarkedLines(thread, plane); got != 2 {
					t.Fatalf("step %d: thread %d plane %d has %d marked lines, want 2", step, thread, plane, got)
				}
				if !h.TestMark(thread, plane, lines[1], mem.LineSize) || !h.TestMark(thread, plane, lines[2], mem.LineSize) {
					t.Fatalf("step %d: thread %d plane %d lost a mark to another pair's clear", step, thread, plane)
				}
			}
		}
		if step%3 == 0 {
			// Marks written in many different epochs, each killed by the
			// next increment, must stay dead when their epoch comes round.
			a := lines[1+step%2]
			h.SetMark(th, pl, a, mem.LineSize)
			if !h.TestMark(th, pl, a, mem.LineSize) {
				t.Fatalf("step %d: fresh mark on %#x not set", step, a)
			}
		}
	}

	marked := h.MarkedDrops
	rec.events = nil
	if !h.EvictLine(0, lines[0]) {
		t.Fatal("line 0 is not resident")
	}
	if len(rec.events) != 2 {
		t.Fatalf("want one drop event per SMT thread, got %+v", rec.events)
	}
	for _, e := range rec.events {
		if e.mark.Any() {
			t.Fatalf("drop reported a stale mask: %+v", e)
		}
	}
	if h.MarkedDrops != marked {
		t.Fatalf("MarkedDrops %d -> %d for a line whose marks were all dead", marked, h.MarkedDrops)
	}

	// Line 1 still carries the other pairs' marks; its drop reports exactly
	// those.
	rec.events = nil
	h.EvictLine(0, lines[1])
	want := map[int]MarkMasks{0: {0, 0b1111}, 1: {0b1111, 0b1111}}
	for _, e := range rec.events {
		if e.mark != want[e.core] {
			t.Fatalf("thread %d dropped with marks %v, want %v", e.core, e.mark, want[e.core])
		}
	}
	if h.MarkedDrops != marked+1 {
		t.Fatalf("MarkedDrops %d -> %d for one marked line", marked, h.MarkedDrops)
	}
}

// TestWayAndStateSizes pins the host bytes per simulated way: 8 for the
// tag and LRU stamp every level scans, plus 6 of state on an L1 way. A
// wider field pads the way to 16 bytes or the state to 8.
func TestWayAndStateSizes(t *testing.T) {
	if got := unsafe.Sizeof(way{}); got != 8 {
		t.Errorf("unsafe.Sizeof(way{}) = %d, want 8", got)
	}
	if got := unsafe.Sizeof(lineState{}); got != 6 {
		t.Errorf("unsafe.Sizeof(lineState{}) = %d, want 6", got)
	}
}

// TestHierarchyHostBytes holds the host memory of the 4-core evaluation
// hierarchy, built once per simulated cell, to 100 KiB: 8 bytes per way,
// 6 more per L1 way and a directory word per L2 way read 95 232 B, where
// 24-byte ways read 181 152 B.
func TestHierarchyHostBytes(t *testing.T) {
	const ceiling = 100 << 10
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := New(evalConfig(4))
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(h)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("4-core hierarchy host bytes: %d", got)
	if got > ceiling {
		t.Fatalf("New allocated %d B, ceiling %d B", got, ceiling)
	}
}

// Every exported entry point that takes an address panics with
// ErrAddrRange at AddrLimit. The last line below it works, prefetching the
// two lines past it.
func TestAddrLimitPanics(t *testing.T) {
	h := New(evalConfig(2))
	last := uint64(AddrLimit - mem.LineSize)
	h.Access(0, last, false)
	h.Access(1, last, true)
	h.SetMark(1, 0, last, 64)
	if !h.TestMark(1, 0, last, 64) || h.Resident(0, last) {
		t.Fatal("the last line below AddrLimit is not cached like any other")
	}
	checkDirectory(t, h)
	for name, call := range map[string]func(addr uint64){
		"Access":             func(a uint64) { h.Access(0, a, true) },
		"MarkAccess":         func(a uint64) { h.MarkAccess(0, 0, a, 16, MarkSet) },
		"SpeculativeRFO":     func(a uint64) { h.SpeculativeRFO(0, a) },
		"EvictLine":          func(a uint64) { h.EvictLine(0, a) },
		"BackInvalidateLine": func(a uint64) { h.BackInvalidateLine(a) },
		"SetMark":            func(a uint64) { h.SetMark(0, 0, a, 16) },
		"ClearMark":          func(a uint64) { h.ClearMark(0, 0, a, 16) },
		"TestMark":           func(a uint64) { h.TestMark(0, 0, a, 16) },
		"Resident":           func(a uint64) { h.Resident(0, a) },
	} {
		func() {
			defer func() {
				if err, _ := recover().(error); !errors.Is(err, ErrAddrRange) || !strings.Contains(err.Error(), "limit") {
					t.Errorf("%s(AddrLimit) panicked with %v, want ErrAddrRange naming the limit", name, err)
				}
			}()
			call(AddrLimit)
		}()
	}
}

func TestInclusiveBackInvalidation(t *testing.T) {
	// L2: 16 sets * 64 = 1024B stride, assoc 4. Fill one L2 set with 5
	// lines; the first line must be back-invalidated out of L1 too.
	h := testHierarchy(2)
	rec := &dropRecorder{}
	h.AddDropListener(rec)
	l2Stride := uint64(16 * mem.LineSize)
	h.Access(0, base, false)
	h.SetMark(0, 0, base, 64)
	for i := uint64(1); i <= 4; i++ {
		h.Access(1, base+i*l2Stride, false) // core 1 thrashes the L2 set
	}
	if h.Resident(0, base) {
		t.Fatal("inclusion violated: line evicted from L2 still in an L1")
	}
	found := false
	for _, e := range rec.events {
		if e.core == 0 && e.line == base && e.reason == DropBackInvalidate && e.mark.Any() {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a marked back-invalidation of core 0; events: %+v", rec.events)
	}
}

func TestRemoteReadListener(t *testing.T) {
	h := testHierarchy(2)
	var reads []struct {
		reader int
		line   uint64
	}
	h.AddRemoteReadListener(readFunc(func(r int, la uint64) {
		reads = append(reads, struct {
			reader int
			line   uint64
		}{r, la})
	}))
	h.Access(0, base, true)
	h.Access(1, base, false)
	if len(reads) == 0 || reads[len(reads)-1].reader != 1 || reads[len(reads)-1].line != base {
		t.Fatalf("remote read not observed: %+v", reads)
	}
}

type readFunc func(int, uint64)

func (f readFunc) LineRead(r int, la uint64) { f(r, la) }

func TestPrefetchFillsNextLine(t *testing.T) {
	h := New(HierarchyConfig{
		Cores:    1,
		L1:       Config{SizeBytes: 1 << 10, Assoc: 2},
		L2:       Config{SizeBytes: 4 << 10, Assoc: 4},
		Prefetch: true,
	})
	h.Access(0, base, false)
	if !h.Resident(0, base+mem.LineSize) {
		t.Fatal("prefetcher did not fill the next line")
	}
	if h.PrefetchFills == 0 {
		t.Fatal("prefetch stat not counted")
	}
}

// A read prefetch is a demand read fill: it downgrades a Modified owner to
// Shared, so the owner's next store invalidates the prefetched copy and
// the marks set on it, which the drop event carries and MarkedDrops counts.
func TestReadPrefetchDowngradesOwner(t *testing.T) {
	h := New(HierarchyConfig{
		Cores:    2,
		L1:       Config{SizeBytes: 1 << 10, Assoc: 2},
		L2:       Config{SizeBytes: 4 << 10, Assoc: 4},
		Prefetch: true,
	})
	rec := &dropRecorder{}
	h.AddDropListener(rec)
	x := base + 4*mem.LineSize
	h.Access(0, x, true)               // core 0 holds X Modified
	h.Access(1, x-mem.LineSize, false) // core 1's read prefetch fills X
	if !h.Resident(1, x) {
		t.Fatal("the read prefetch did not fill X")
	}
	if l1 := &h.l1[0]; l1.state[l1.find(lineOf(x))].st != shared {
		t.Fatal("the read prefetch left core 0's copy of X Modified")
	}
	h.SetMark(1, 0, x, 64)
	rec.events = nil
	h.Access(0, x, true)
	want := dropEvent{core: 1, line: x, mark: MarkMasks{0b1111, 0}, reason: DropInvalidate, by: 0}
	if len(rec.events) != 1 || rec.events[0] != want {
		t.Fatalf("core 0's store dropped %+v, want just %+v", rec.events, want)
	}
	if h.MarkedDrops != 1 {
		t.Fatalf("MarkedDrops = %d, want 1", h.MarkedDrops)
	}
	if h.TestMark(1, 0, x, 64) {
		t.Fatal("core 1's mark survived core 0's store")
	}
	checkDirectory(t, h)
}

func TestMarkSpanClampsAtLineEnd(t *testing.T) {
	h := testHierarchy(1)
	h.Access(0, base, false)
	h.SetMark(0, 0, base+56, 16) // last sub-block only
	if !h.TestMark(0, 0, base+48, 16) {
		t.Fatal("sub-block 3 not marked")
	}
	if h.TestMark(0, 0, base, 16) {
		t.Fatal("mark leaked to sub-block 0")
	}
	// Granularity-64 at an unaligned address covers the whole line.
	h.Access(0, base+mem.LineSize, false)
	h.SetMark(0, 0, base+mem.LineSize+8, 64)
	if !h.TestMark(0, 0, base+mem.LineSize, 64) {
		t.Fatal("granularity-64 mark must cover the containing line")
	}
}

func TestFlushCore(t *testing.T) {
	h := testHierarchy(1)
	h.Access(0, base, false)
	h.Access(0, base+mem.LineSize, false)
	h.FlushCore(0)
	if h.Resident(0, base) || h.Resident(0, base+mem.LineSize) {
		t.Fatal("FlushCore left lines resident")
	}
}

func TestConfigSetsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two set count did not panic")
		}
	}()
	Config{SizeBytes: 3 << 10, Assoc: 2}.Sets()
}

func TestSpeculativeRFOInvalidatesOthersOnly(t *testing.T) {
	h := testHierarchy(2)
	h.Access(0, base, false)
	h.SetMark(0, 0, base, 64)
	h.Access(1, base, false)
	h.SpeculativeRFO(1, base) // core 1's wrong-path RFO
	if h.Resident(1, base) != true {
		t.Fatal("the requester's own copy must survive its speculative RFO")
	}
	if h.Resident(0, base) {
		t.Fatal("the victim's copy must be invalidated")
	}
}

// TestSpeculativeRFOInertOnOneL1 is the premise the simulator skips RFOs
// on: on a hierarchy with one L1 — one core, or two SMT threads sharing
// it — a random stream of fills, stores and marks leaves ways, line
// states, marks, directory words and every counter exactly as a twin that
// never saw the SpeculativeRFOs interleaved with it.
func TestSpeculativeRFOInertOnOneL1(t *testing.T) {
	for _, tpc := range []int{1, 2} {
		cfg := HierarchyConfig{
			Cores: tpc, ThreadsPerCore: tpc,
			L1:       Config{SizeBytes: 1 << 10, Assoc: 2},
			L2:       Config{SizeBytes: 4 << 10, Assoc: 4},
			Prefetch: true,
		}
		h, twin := New(cfg), New(cfg)
		if h.L1Groups() != 1 {
			t.Fatalf("%d threads per core: %d L1 groups, want 1", tpc, h.L1Groups())
		}
		r := rand.New(rand.NewSource(int64(tpc)))
		rfos := 0
		for i := 0; i < 20_000; i++ {
			thread, plane, k := r.Intn(tpc), r.Intn(NumMarkPlanes), r.Intn(8)
			addr := base + uint64(r.Intn(96))*mem.LineSize + uint64(r.Intn(8))*8
			for _, x := range []*Hierarchy{h, twin} {
				switch {
				case k < 3:
					x.Access(thread, addr, false)
				case k < 5:
					x.Access(thread, addr, true)
				case k < 6:
					x.SetMark(thread, plane, addr, 16)
				case k < 7:
					x.ClearMark(thread, plane, addr, 64)
				default:
					x.ClearAllMarks(thread, plane)
				}
			}
			if i%3 == 0 {
				h.SpeculativeRFO(r.Intn(tpc), mem.LineAddr(base+uint64(r.Intn(96))*mem.LineSize))
				rfos++
			}
		}
		if !reflect.DeepEqual(h, twin) {
			t.Errorf("%d threads per core: %d SpeculativeRFOs changed the hierarchy", tpc, rfos)
		}
		checkDirectory(t, h)
	}
}

func TestLRUVictimSelection(t *testing.T) {
	// Assoc 2: touch A, B, then re-touch A; filling C must evict B.
	h := testHierarchy(1)
	setStride := uint64(8 * mem.LineSize)
	a, b, c := base, base+setStride, base+2*setStride
	h.Access(0, a, false)
	h.Access(0, b, false)
	h.Access(0, a, false) // A is now MRU
	h.Access(0, c, false) // evicts LRU = B
	if !h.Resident(0, a) {
		t.Fatal("MRU line evicted")
	}
	if h.Resident(0, b) {
		t.Fatal("LRU line survived")
	}
	if !h.Resident(0, c) {
		t.Fatal("new line not filled")
	}
}

// Property: inclusion — after any access sequence, every line resident in
// some L1 is also resident in the L2.
func TestQuickInclusionInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		h := testHierarchy(2)
		for i, o := range ops {
			thread := i % 2
			la := base + uint64(o%256)*mem.LineSize
			h.Access(thread, la, o%5 == 0)
		}
		for _, l1 := range h.l1 {
			for _, w := range l1.ways {
				if w.tag != noTag && h.l2.find(w.tag) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: at most one L1 group ever holds a line in the modified state,
// and a modified line is never simultaneously shared elsewhere.
func TestQuickSingleWriterInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		h := testHierarchy(4)
		for i, o := range ops {
			thread := i % 4
			la := base + uint64(o%128)*mem.LineSize
			h.Access(thread, la, o%3 == 0)
		}
		lines := map[uint32][]state{}
		for _, l1 := range h.l1 {
			for i, w := range l1.ways {
				if w.tag != noTag {
					lines[w.tag] = append(lines[w.tag], l1.state[i].st)
				}
			}
		}
		for _, states := range lines {
			mods := 0
			for _, st := range states {
				if st == modified {
					mods++
				}
			}
			if mods > 1 || (mods == 1 && len(states) > 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
