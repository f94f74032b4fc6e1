package cache

import (
	"math/rand"
	"testing"

	"hastm.dev/hastm/internal/mem"
)

func (m sharerMask) has(g int) bool { return m[g>>6]&(1<<(g&63)) != 0 }

// checkDirectory asserts the three invariants the directory exists for, on
// whatever state h is in: inclusion (an L1 line is in its socket's L2),
// single writer (a modified line has no other copy anywhere), and
// precision (an L2 way's sharer bit g is set exactly when group g of that
// socket holds the line).
func checkDirectory(t *testing.T, h *Hierarchy) {
	t.Helper()
	holders := map[uint64][]state{}
	for g, l1 := range h.l1 {
		for _, set := range l1.sets {
			for _, w := range set {
				if w.st == invalid {
					continue
				}
				holders[w.tag] = append(holders[w.tag], w.st)
				_, m := h.l2[g/h.gps].lookupDir(w.tag)
				if m == nil {
					t.Fatalf("group %d holds %#x but its socket's L2 does not (inclusion)", g, w.tag)
				}
				if !m.has(g % h.gps) {
					t.Fatalf("group %d holds %#x but its sharer bit is clear", g, w.tag)
				}
			}
		}
	}
	for la, states := range holders {
		for _, st := range states {
			if st == modified && len(states) > 1 {
				t.Fatalf("line %#x is modified in one L1 and held by %d", la, len(states))
			}
		}
	}
	for s, l2 := range h.l2 {
		if want := (h.gps + 63) / 64; l2.stride != want {
			t.Fatalf("socket %d: directory stride %d, want %d for %d groups", s, l2.stride, want, h.gps)
		}
		for si, set := range l2.sets {
			for i, w := range set {
				m := l2.dirEntry(uint64(si), i)
				for g := 0; g < 64*l2.stride; g++ {
					if !m.has(g) {
						continue
					}
					if w.st == invalid || g >= h.gps || h.l1[s*h.gps+g].lookup(w.tag) == nil {
						t.Fatalf("socket %d: stale sharer bit %d on way holding %#x", s, g, w.tag)
					}
				}
			}
		}
	}
}

// The directory invariants hold at every entry width — one word for up to
// 64 groups per socket, two at 65, four at the 256-group cap — flat, SMT
// and multi-socket, under random traffic with evictions, upgrades and
// back-invalidations.
func TestDirectoryInvariantsAcrossStrides(t *testing.T) {
	for _, c := range []struct {
		name              string
		sockets, gps, smt int
		accesses          int
	}{
		{"1-group", 1, 1, 1, 4000},
		{"4-groups", 1, 4, 1, 4000},
		{"4-groups-smt", 1, 4, 2, 4000},
		{"64-groups", 1, 64, 1, 8000},
		{"65-groups", 1, 65, 1, 8000},
		{"2x65-groups", 2, 65, 1, 8000},
		{"256-groups", 1, 256, 1, 12000},
		{"2x256-groups-smt", 2, 256, 2, 12000},
	} {
		t.Run(c.name, func(t *testing.T) {
			threads := c.sockets * c.gps * c.smt
			h := New(HierarchyConfig{
				Cores: threads, ThreadsPerCore: c.smt, Sockets: c.sockets,
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
