package cache

import (
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
// 4-bit epoch wraps. Through two and a half wraps, no mark the cleared
// (thread, plane) wrote in an earlier epoch may read as live, the other
// three pairs' marks must survive every increment, and dropping a line
// whose only marks are dead reports no mask and counts no marked drop.
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
	for step := 1; step <= 40; step++ {
		h.ClearAllMarks(th, pl)
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

// TestLineIs24Bytes pins the host bytes per simulated way: the recorded L2
// way sits in padding the line already had; one more field would pad it to
// 32 bytes, a third more host memory for every cache of every machine.
func TestLineIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(line{}) = %d, want 24", got)
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
				if w.st != invalid && h.l2[0].lookup(w.tag) == nil {
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
		lines := map[uint64][]state{}
		for _, l1 := range h.l1 {
			for _, w := range l1.ways {
				if w.st != invalid {
					lines[w.tag] = append(lines[w.tag], w.st)
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
