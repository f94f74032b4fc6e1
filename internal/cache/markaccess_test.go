package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hastm.dev/hastm/internal/mem"
)

// composedMark is a mark instruction as two probes of the L1 set: TestMark
// before a read Access, or a read Access before SetMark or ClearMark.
// MarkAccess must do exactly what it does, on one probe.
func composedMark(h *Hierarchy, thread, plane int, addr, size uint64, op MarkOp) (AccessResult, bool) {
	switch op {
	case MarkTest:
		marked := h.TestMark(thread, plane, addr, size)
		return h.Access(thread, addr, false), marked
	case MarkSet:
		res := h.Access(thread, addr, false)
		h.SetMark(thread, plane, addr, size)
		return res, false
	default:
		res := h.Access(thread, addr, false)
		h.ClearMark(thread, plane, addr, size)
		return res, false
	}
}

// stateOf is every field of h but its listeners: residency, MESI states,
// LRU stamps and ticks, raw mark bytes and epochs, directory words and
// every counter.
func stateOf(h *Hierarchy) Hierarchy {
	s := *h
	s.dropListeners, s.readListeners = nil, nil
	return s
}

// TestMarkAccessEqualsComposition runs one seeded stream on two identical
// hierarchies. Each mark instruction is a MarkAccess on one and its
// two-probe composition on the other; every other operation of the
// fingerprint mix runs on both. After each operation the two must agree on
// the returned result and flag, on every drop and remote-read event so far
// (their fingerprints), and on their whole state (on 2x65, after every
// 64th operation and at the end). The geometries cover 1 and 2 threads per
// L1 and a two-word directory. "lossy" has a one-set, two-way L2, so a
// loadsetmark's own second prefetch back-invalidates the line it loaded;
// the test checks that that happens.
func TestMarkAccessEqualsComposition(t *testing.T) {
	lossy := func(tpc int) func(bool) *Hierarchy {
		return func(prefetch bool) *Hierarchy {
			return New(HierarchyConfig{
				Cores: 2, ThreadsPerCore: tpc,
				L1:       Config{SizeBytes: 256, Assoc: 2},
				L2:       Config{SizeBytes: 128, Assoc: 2},
				Prefetch: prefetch,
			})
		}
	}
	type geometry struct {
		name    string
		threads int
		build   func(prefetch bool) *Hierarchy
	}
	geometries := []geometry{{"lossy", 2, lossy(1)}, {"lossy-smt", 2, lossy(2)}}
	for _, g := range streamGeometries {
		geometries = append(geometries, geometry{g.name, g.threads, g.build})
	}
	for _, g := range geometries {
		for _, prefetch := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/prefetch=%v", g.name, prefetch), func(t *testing.T) {
				one, two := g.build(prefetch), g.build(prefetch)
				fOne, fTwo := newFingerprint(), newFingerprint()
				one.AddDropListener(fOne)
				one.AddRemoteReadListener(fOne)
				two.AddDropListener(fTwo)
				two.AddRemoteReadListener(fTwo)
				r := rand.New(rand.NewSource(int64(g.threads)))
				var ops [3]int // mark instructions run, by op
				lost := 0      // loadsetmarks that missed and lost their line to their own prefetch
				for i := 0; i < 6000; i++ {
					o := streamOp{r.Intn(streamKinds * streamPlanes), r.Intn(g.threads), r.Intn(24), r.Intn(256)}
					if r.Intn(2) == 0 {
						o.apply(one, fOne)
						o.apply(two, fTwo)
					} else {
						op, plane := MarkOp(r.Intn(3)), o.kind%streamPlanes
						addr := base + uint64(o.line)*mem.LineSize + uint64(o.arg%16)*4
						gran := streamGrans[o.arg/16%8]
						resOne, markedOne := one.MarkAccess(o.thread, plane, addr, gran, op)
						resTwo, markedTwo := composedMark(two, o.thread, plane, addr, gran, op)
						if resOne != resTwo || markedOne != markedTwo {
							t.Fatalf("op %d: %v at %#x returned %+v, %v; the composition %+v, %v",
								i, op, addr, resOne, markedOne, resTwo, markedTwo)
						}
						ops[op]++
						if op == MarkSet && !resOne.L1Hit && !one.Resident(o.thread, addr) {
							lost++
						}
					}
					if fOne.sum != fTwo.sum {
						t.Fatalf("op %d: the event streams part", i)
					}
					if g.threads < 100 || i%64 == 0 {
						if !reflect.DeepEqual(stateOf(one), stateOf(two)) {
							t.Fatalf("op %d: the hierarchies' states part", i)
						}
					}
				}
				if !reflect.DeepEqual(stateOf(one), stateOf(two)) {
					t.Fatal("the hierarchies' final states differ")
				}
				checkDirectory(t, one)
				if ops[MarkTest] == 0 || ops[MarkSet] == 0 || ops[MarkReset] == 0 {
					t.Fatalf("mark instructions run by op: %v", ops)
				}
				if strings.HasPrefix(g.name, "lossy") && prefetch && lost == 0 {
					t.Error("no loadsetmark lost its line to its own prefetch")
				}
			})
		}
	}
}
