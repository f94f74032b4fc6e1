package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"hastm.dev/hastm/internal/mem"
)

// streamGeometry is one hierarchy shape the random operation streams run on:
// tiny levels (8-set 2-way L1, 16-set 4-way L2) so evictions, back-
// invalidations and prefetch pollution happen every few operations. "2x65"
// is 65 cores of two SMT threads each: a directory entry two words wide.
type streamGeometry struct {
	name         string
	threads, tpc int
}

var streamGeometries = []streamGeometry{
	{"flat", 4, 1},
	{"smt", 4, 2},
	{"2x65", 130, 2},
}

func (g streamGeometry) build(prefetch bool) *Hierarchy {
	return New(HierarchyConfig{
		Cores: g.threads, ThreadsPerCore: g.tpc,
		L1:       Config{SizeBytes: 1 << 10, Assoc: 2},
		L2:       Config{SizeBytes: 4 << 10, Assoc: 4},
		Prefetch: prefetch,
	})
}

// streamOp is one operation of the mix the fingerprint test and the fuzz
// target drive: kind%32 picks the call (reads 10, writes 4, SetMark 5,
// ClearMark 2, TestMark 3, ClearAllMarks 4, MarkedLines, EvictLine,
// BackInvalidateLine, and SpeculativeRFO with a rare FlushCore), kind/32
// the mark plane; arg%16 is the byte offset in the line in 4-byte steps and
// arg/16%8 the mark granularity.
type streamOp struct {
	kind, thread, line, arg int
}

const (
	opClearAll   = 24 // first kind of the ClearAllMarks range
	streamKinds  = 32
	streamPlanes = 2
)

var streamGrans = [8]uint64{1, 8, 16, 24, 32, 48, 64, 128}

// apply performs o on h and feeds every answer the call returns to f.
// It returns the plane a ClearAllMarks used, or -1.
func (o streamOp) apply(h *Hierarchy, f *fingerprint) int {
	plane := o.kind / streamKinds % streamPlanes
	addr := base + uint64(o.line)*mem.LineSize + uint64(o.arg%16)*4
	gran := streamGrans[o.arg/16%8]
	switch k := o.kind % streamKinds; {
	case k < 10:
		f.result(h.Access(o.thread, addr, false))
	case k < 14:
		f.result(h.Access(o.thread, addr, true))
	case k < 19:
		h.SetMark(o.thread, plane, addr, gran)
	case k < 21:
		h.ClearMark(o.thread, plane, addr, gran)
	case k < opClearAll:
		f.add(3, b2u(h.TestMark(o.thread, plane, addr, gran)))
	case k < 28:
		h.ClearAllMarks(o.thread, plane)
		return plane
	case k == 28:
		f.add(4, uint64(h.MarkedLines(o.thread, plane)))
	case k == 29:
		f.add(5, b2u(h.EvictLine(o.thread, addr)))
	case k == 30:
		f.add(6, uint64(h.BackInvalidateLine(addr)))
	case o.arg%16 == 0:
		h.FlushCore(o.thread)
	default:
		h.SpeculativeRFO(o.thread, mem.LineAddr(addr))
	}
	return -1
}

// fingerprint is FNV-1a over the little-endian bytes of every value added.
// As a listener it folds in each drop and remote-read event, in order.
type fingerprint struct{ sum uint64 }

func newFingerprint() *fingerprint { return &fingerprint{sum: 14695981039346656037} }

func (f *fingerprint) add(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			f.sum ^= v & 0xff
			f.sum *= 1099511628211
			v >>= 8
		}
	}
}

func (f *fingerprint) result(r AccessResult) {
	f.add(1, b2u(r.L1Hit)|b2u(r.L2Hit)<<1)
}

func (f *fingerprint) LineDropped(core int, la uint64, marks MarkMasks, reason DropReason, by int) {
	f.add(7, uint64(core), la, uint64(marks[0]), uint64(marks[1]), uint64(reason), uint64(by))
}

func (f *fingerprint) LineRead(reader int, la uint64) { f.add(8, uint64(reader), la) }

// counters folds in every statistic the hierarchy keeps. The three zeros
// stand where a hierarchy of one socket folded its (always zero) socket
// traffic counters, so the hashes pinned then still hold.
func (f *fingerprint) counters(h *Hierarchy) {
	f.add(9, h.L1Hits, h.L1Misses, h.L2Hits, h.L2Misses, h.Invalidations,
		h.BackInvalidations, h.Evictions, h.MarkedDrops, h.PrefetchFills, 0, 0, 0)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestAccessStreamFingerprint pins the hierarchy's observable behaviour —
// every AccessResult, drop and remote-read event, mark answer and final
// counter — under a seeded random operation stream on each geometry, with
// the prefetcher off and on. A change to the host-side data path must leave
// every value unchanged. Each (thread, plane) sees at least 40
// ClearAllMarks, so any per-plane state with a short period wraps.
func TestAccessStreamFingerprint(t *testing.T) {
	want := map[string]uint64{
		"flat":          0x1483210677e4416d,
		"flat-prefetch": 0xfebadc8598d4c1b9,
		"smt":           0xe3dfb66055689f56,
		"smt-prefetch":  0xb45f98321dec69bb,
		"2x65":          0xb8f948a61d801c81,
		"2x65-prefetch": 0x635fbf43ca78cdae,
	}
	for _, g := range streamGeometries {
		for _, prefetch := range []bool{false, true} {
			name := g.name
			if prefetch {
				name += "-prefetch"
			}
			t.Run(name, func(t *testing.T) {
				h := g.build(prefetch)
				f := newFingerprint()
				h.AddDropListener(f)
				h.AddRemoteReadListener(f)
				r := rand.New(rand.NewSource(int64(g.threads)))
				clears := make([][streamPlanes]int, g.threads)
				last := make([]int, g.threads) // half the ops revisit the thread's previous line
				n := max(20000, g.threads*streamPlanes*8*80)
				for i := 0; i < n; i++ {
					o := streamOp{r.Intn(streamKinds * streamPlanes), r.Intn(g.threads), r.Intn(96), r.Intn(256)}
					if r.Intn(2) == 0 {
						o.line = last[o.thread]
					}
					last[o.thread] = o.line
					if p := o.apply(h, f); p >= 0 {
						clears[o.thread][p]++
					}
				}
				f.counters(h)
				for th := range clears {
					for p, c := range clears[th] {
						if c < 40 {
							t.Fatalf("thread %d plane %d saw %d ClearAllMarks, want >= 40", th, p, c)
						}
					}
				}
				if f.sum != want[name] {
					t.Errorf("fingerprint %#x, want %#x", f.sum, want[name])
				}
			})
		}
	}
}

// TestLRUStampWrap runs the fingerprint's operation mix on each geometry,
// prefetcher off and on, twice: on a fresh hierarchy, and on one whose
// levels' 32-bit ticks start just below the wrap. Renumbering at the wrap
// keeps every set's LRU order, so the two fingerprints must agree.
func TestLRUStampWrap(t *testing.T) {
	for _, g := range streamGeometries {
		for _, prefetch := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/prefetch=%v", g.name, prefetch), func(t *testing.T) {
				var sums [2]uint64
				for pass := range sums {
					h := g.build(prefetch)
					if pass == 1 {
						eachLevel(h, func(l *level) { l.tick = ^uint32(0) - 20 })
					}
					f := newFingerprint()
					h.AddDropListener(f)
					h.AddRemoteReadListener(f)
					r := rand.New(rand.NewSource(int64(g.threads)))
					for i := 0; i < 20000; i++ {
						streamOp{r.Intn(streamKinds * streamPlanes), r.Intn(g.threads), r.Intn(96), r.Intn(256)}.apply(h, f)
					}
					f.counters(h)
					checkDirectory(t, h)
					eachLevel(h, func(l *level) {
						if pass == 1 && l.tick > 1<<31 {
							t.Fatalf("a level's tick %d never wrapped", l.tick)
						}
					})
					sums[pass] = f.sum
				}
				if sums[0] != sums[1] {
					t.Errorf("fingerprint %#x across the wrap, %#x fresh", sums[1], sums[0])
				}
			})
		}
	}
}

// eachLevel calls fn on every level of h.
func eachLevel(h *Hierarchy, fn func(*level)) {
	for i := range h.l1 {
		fn(&h.l1[i])
	}
	fn(&h.l2)
}
