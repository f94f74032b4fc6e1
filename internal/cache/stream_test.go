package cache

import (
	"math/rand"
	"testing"

	"hastm.dev/hastm/internal/mem"
)

// streamGeometry is one hierarchy shape the random operation streams run on:
// tiny levels (8-set 2-way L1, 16-set 4-way L2) so evictions, back-
// invalidations and prefetch pollution happen every few operations.
type streamGeometry struct {
	name              string
	threads, tpc, skt int
}

var streamGeometries = []streamGeometry{
	{"flat", 4, 1, 1},
	{"smt", 4, 2, 1},
	{"2x65", 130, 1, 2},
}

func (g streamGeometry) build(prefetch bool) *Hierarchy {
	return New(HierarchyConfig{
		Cores: g.threads, ThreadsPerCore: g.tpc, Sockets: g.skt,
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
	f.add(1, b2u(r.L1Hit)|b2u(r.L2Hit)<<1|b2u(r.RemoteL2)<<2|b2u(r.RemoteDirty)<<3)
}

func (f *fingerprint) LineDropped(core int, la uint64, marks MarkMasks, reason DropReason, by int) {
	f.add(7, uint64(core), la, uint64(marks[0]), uint64(marks[1]), uint64(reason), uint64(by))
}

func (f *fingerprint) LineRead(reader int, la uint64) { f.add(8, uint64(reader), la) }

// counters folds in every statistic the hierarchy keeps.
func (f *fingerprint) counters(h *Hierarchy) {
	f.add(9, h.L1Hits, h.L1Misses, h.L2Hits, h.L2Misses, h.Invalidations,
		h.BackInvalidations, h.Evictions, h.MarkedDrops, h.PrefetchFills)
	for _, s := range h.Socket {
		f.add(s.CrossSocketMisses, s.RemoteDirtyFetches, s.DirectoryInvalidations)
	}
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
		"flat-prefetch": 0x7ac037515c24f2c8,
		"smt":           0xe3dfb66055689f56,
		"smt-prefetch":  0x4d5eb22f12c6ee2b,
		"2x65":          0x7c4182060ffb184c,
		"2x65-prefetch": 0x3c13cd5ea66bcc47,
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
