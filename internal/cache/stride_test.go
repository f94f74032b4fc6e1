package cache

import (
	"math/rand"
	"testing"

	"hastm.dev/hastm/internal/mem"
)

func (m sharerMask) has(g int) bool { return m[g>>6]&(1<<(g&63)) != 0 }

// checkDirectory asserts the invariants the directory and the host-side
// data path stand on, on whatever state h is in: inclusion (an L1 line is
// in the L2, in the way the line recorded), single writer (a modified line
// has no other copy), precision (an L2 way's sharer bit g is set exactly
// when group g holds the line), one way per line, and clean invalid ways
// (tag noTag, lru 0, no live mark).
func checkDirectory(t *testing.T, h *Hierarchy) {
	t.Helper()
	holders := map[uint32][]state{}
	for g := range h.l1 {
		l1 := &h.l1[g]
		if l1.id != g {
			t.Fatalf("group %d is labelled id %d", g, l1.id)
		}
		l2 := &h.l2
		for i := range l1.ways {
			w, s := l1.ways[i], l1.state[i]
			if (w.tag == noTag) != (s.st == invalid) {
				t.Fatalf("group %d: way %d has tag %#x in state %d", g, i, w.tag, s.st)
			}
			if w.tag == noTag {
				if w.lru != 0 {
					t.Fatalf("group %d: invalid way %d has lru %d", g, i, w.lru)
				}
				for slot := 0; slot < MaxSMT; slot++ {
					if m := l1.marks(i, slot); m.Any() {
						t.Fatalf("group %d: invalid way %d carries live marks %v for slot %d", g, i, m, slot)
					}
				}
				continue
			}
			if j := l1.find(w.tag); j != i {
				t.Fatalf("group %d holds %#x in ways %d and %d", g, w.tag, i, j)
			}
			holders[w.tag] = append(holders[w.tag], s.st)
			at := l2.base(w.tag) + int(s.l2way)
			if l2.ways[at].tag != w.tag {
				t.Fatalf("group %d holds %#x but its recorded L2 way %d holds %#x (inclusion)", g, w.tag, s.l2way, l2.ways[at].tag)
			}
			if !l2.dirEntry(at).has(l1.id) {
				t.Fatalf("group %d holds %#x but its sharer bit is clear", g, w.tag)
			}
		}
	}
	for la, states := range holders {
		owners := 0
		for _, st := range states {
			if st == modified {
				owners++
			}
		}
		if owners > 1 || owners == 1 && len(states) > 1 {
			t.Fatalf("line %#x is modified in %d L1s and held by %d", la, owners, len(states))
		}
	}
	l2 := &h.l2
	if l2.state != nil {
		t.Fatal("the L2 carries L1 state")
	}
	if want := (len(h.l1) + 63) / 64; l2.stride != want {
		t.Fatalf("directory stride %d, want %d for %d groups", l2.stride, want, len(h.l1))
	}
	for i, w := range l2.ways {
		if w.tag == noTag && w.lru != 0 || w.tag != noTag && w.lru == 0 {
			t.Fatalf("L2 way %d has tag %#x, lru %d", i, w.tag, w.lru)
		}
		m := l2.dirEntry(i)
		for g := 0; g < 64*l2.stride; g++ {
			if !m.has(g) {
				continue
			}
			if w.tag == noTag || g >= len(h.l1) || h.l1[g].find(w.tag) < 0 {
				t.Fatalf("stale sharer bit %d on L2 way holding %#x", g, w.tag)
			}
		}
	}
}

// The directory invariants hold at every entry width — one word for up to
// 64 groups, two at 65, four at the 256-group cap — with and without SMT,
// under random traffic with evictions, upgrades and back-invalidations.
func TestDirectoryInvariantsAcrossStrides(t *testing.T) {
	for _, c := range []struct {
		name        string
		groups, smt int
		accesses    int
	}{
		{"1-group", 1, 1, 4000},
		{"4-groups", 4, 1, 4000},
		{"4-groups-smt", 4, 2, 4000},
		{"64-groups", 64, 1, 8000},
		{"65-groups", 65, 1, 8000},
		{"65-groups-smt", 65, 2, 8000},
		{"256-groups", 256, 1, 12000},
		{"256-groups-smt", 256, 2, 12000},
	} {
		t.Run(c.name, func(t *testing.T) {
			threads := c.groups * c.smt
			h := New(HierarchyConfig{
				Cores: threads, ThreadsPerCore: c.smt,
				L1: Config{SizeBytes: 1 << 10, Assoc: 2},
				L2: Config{SizeBytes: 4 << 10, Assoc: 4},
			})
			r := rand.New(rand.NewSource(int64(threads)))
			for i := 0; i < c.accesses; i++ {
				la := base + uint64(r.Intn(96))*mem.LineSize
				h.Access(r.Intn(threads), la, r.Intn(4) == 0)
				if i%500 == 0 {
					checkDirectory(t, h)
				}
			}
			checkDirectory(t, h)
		})
	}
}

// A write's invalidation walk visits sharers in ascending group order
// across directory words, and names nobody else.
func TestWideDirectoryWalkOrder(t *testing.T) {
	h := New(HierarchyConfig{
		Cores: 256,
		L1:    Config{SizeBytes: 1 << 10, Assoc: 2},
		L2:    Config{SizeBytes: 4 << 10, Assoc: 4},
	})
	rec := &dropRecorder{}
	h.AddDropListener(rec)
	sharers := []int{255, 3, 130, 64, 63, 191}
	for _, g := range sharers {
		h.Access(g, base, false)
	}
	h.Access(100, base, true)
	want := []int{3, 63, 64, 130, 191, 255}
	if len(rec.events) != len(want) {
		t.Fatalf("want %d drops, got %+v", len(want), rec.events)
	}
	for i, e := range rec.events {
		if e.core != want[i] || e.reason != DropInvalidate || e.by != 100 {
			t.Fatalf("drop %d = %+v, want core %d invalidated by 100", i, e, want[i])
		}
	}
	checkDirectory(t, h)
}
