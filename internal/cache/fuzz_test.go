package cache

import (
	"math/rand"
	"testing"

	"hastm.dev/hastm/internal/mem"
)

// maxFuzzOps caps the operations FuzzHierarchy decodes from one input.
const maxFuzzOps = 128

// FuzzHierarchy decodes bytes into the operation mix of
// TestAccessStreamFingerprint — the first byte picks the geometry (low
// bits), the last 256 lines below AddrLimit instead of the first 256 above
// base (bit 6) and the prefetcher (top bit), every following four bytes
// one operation (kind, thread, line, argument) — and checks the directory
// and data-path invariants and the mark contract (markModel) after every
// operation.
func FuzzHierarchy(f *testing.F) {
	// Seeds: the TestQuick*Invariant shapes — two threads over 256 lines
	// writing one access in five, four threads over 128 lines writing one in
	// three — plus four threads writing one in three over 8 hot lines, where
	// copies meet often enough that a lost invalidation shows within 64
	// operations; on every geometry, low and high lines, prefetcher off and
	// on.
	r := rand.New(rand.NewSource(1))
	for gi := range streamGeometries {
		for _, shape := range []struct{ threads, lines, writeEvery int }{{2, 256, 5}, {4, 128, 3}, {4, 8, 3}} {
			for _, flags := range []byte{0, 0x80, 0x40, 0xc0} {
				data := []byte{byte(gi) | flags}
				for i := 0; i < 64; i++ {
					o := r.Intn(1 << 16)
					kind := byte(0) // a read
					if o%shape.writeEvery == 0 {
						kind = 10 // a write
					}
					data = append(data, kind, byte(i%shape.threads), byte(o%shape.lines), 0)
				}
				f.Add(data)
			}
		}
	}
	// Marked hot lines, prefetcher on: rounds in which thread a writes line
	// x (one of 8), thread b reads the line below — its prefetch reaches x
	// — and marks x, a writes x again and b tests its mark. The threads
	// are four, spread evenly over the machine's threads.
	for gi, g := range streamGeometries {
		for _, flags := range []byte{0x80, 0xc0} {
			data := []byte{byte(gi) | flags}
			for i := 0; i < 12; i++ {
				a, b := byte(r.Intn(4)*(g.threads/4)), byte(r.Intn(4)*(g.threads/4))
				x := byte(1 + r.Intn(8))
				data = append(data, 10, a, x, 96, 0, b, x-1, 96, 14, b, x, 96, 10, a, x, 96, 21, b, x, 96)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := streamGeometries[int(data[0]&0x3f)%len(streamGeometries)]
		h := g.build(data[0]&0x80 != 0)
		first := 0
		if data[0]&0x40 != 0 {
			first = int((AddrLimit-base)/mem.LineSize) - 256
		}
		fp := newFingerprint()
		m := newMarkModel(h)
		// Every op is followed by a full directory check, so a long input
		// costs the fuzzer its throughput; twice the longest seed is enough.
		if len(data) > 1+4*maxFuzzOps {
			data = data[:1+4*maxFuzzOps]
		}
		for data = data[1:]; len(data) >= 4; data = data[4:] {
			m.step(t, streamOp{int(data[0]), int(data[1]) % g.threads, first + int(data[2]), int(data[3])}, fp)
			checkDirectory(t, h)
		}
	})
}

// markModel is the §3 mark contract, run in lock step with a Hierarchy: for
// each (thread, plane, line), the sub-blocks that may still be marked. A
// SetMark on a resident line adds its span, ClearMark removes it and
// ClearAllMarks empties the plane; a line leaves all of a thread's planes on
// another thread's store to it and on any drop event naming the thread. The
// hardware may lose marks the model keeps (the §3.3 default implementation
// is legal), never the reverse. step also checks the signals a store sends:
// every other thread holding the line gets a drop event — DropInvalidate
// from another L1 group, the signal HTM conflict detection needs, or
// DropSiblingStore from its own — carrying the marks it loses.
type markModel struct {
	h      *Hierarchy
	marks  map[markKey]uint8
	events []dropEvent // the current operation's drop events
}

type markKey struct {
	thread, plane int
	line          uint64
}

func newMarkModel(h *Hierarchy) *markModel {
	m := &markModel{h: h, marks: map[markKey]uint8{}}
	h.AddDropListener(m)
	return m
}

func (m *markModel) LineDropped(core int, la uint64, marks MarkMasks, reason DropReason, by int) {
	m.events = append(m.events, dropEvent{core, la, marks, reason, by})
	m.forget(core, la)
}

func (m *markModel) forget(thread int, la uint64) {
	for p := 0; p < NumMarkPlanes; p++ {
		delete(m.marks, markKey{thread, p, la})
	}
}

// live reads a thread's marks on line la from the hardware, one TestMark
// per sub-block and plane.
func (m *markModel) live(thread int, la uint64) MarkMasks {
	var live MarkMasks
	for p := range live {
		for b := uint64(0); b < 4; b++ {
			if m.h.TestMark(thread, p, la+16*b, 16) {
				live[p] |= 1 << b
			}
		}
	}
	return live
}

// step applies o to the hierarchy and the model and checks them against
// each other on o's line.
func (m *markModel) step(t *testing.T, o streamOp, fp *fingerprint) {
	t.Helper()
	h := m.h
	plane := o.kind / streamKinds % streamPlanes
	addr := base + uint64(o.line)*mem.LineSize + uint64(o.arg%16)*4
	la, span := mem.LineAddr(addr), markSpan(addr, streamGrans[o.arg/16%8])
	k := o.kind % streamKinds
	store := k >= 10 && k < 14
	setMark := k >= 14 && k < 19 && h.Resident(o.thread, addr) // a mark on a line not held is lost
	threads := len(h.l1) << h.tpcShift
	held := make([]bool, threads)
	lost := make([]MarkMasks, threads)
	if store {
		for th := range held {
			if th != o.thread && h.Resident(th, addr) {
				held[th], lost[th] = true, m.live(th, la)
			}
		}
	}

	m.events = m.events[:0]
	o.apply(h, fp)

	key := markKey{o.thread, plane, la}
	switch {
	case store:
		for th := range held {
			if th == o.thread {
				continue
			}
			m.forget(th, la)
			if !held[th] {
				continue
			}
			want := dropEvent{th, la, lost[th], DropInvalidate, o.thread}
			if h.l1Of(th) == h.l1Of(o.thread) {
				want.reason = DropSiblingStore
			}
			if got, ok := m.firstDrop(th, la); !ok || got != want {
				t.Fatalf("thread %d's store to %#x: thread %d held it and got drop %+v (found %v), want %+v",
					o.thread, la, th, got, ok, want)
			}
		}
	case setMark:
		m.marks[key] |= span
	case k >= 19 && k < 21: // ClearMark
		m.marks[key] &^= span
	case k >= opClearAll && k < 28:
		for mk := range m.marks {
			if mk.thread == o.thread && mk.plane == plane {
				delete(m.marks, mk)
			}
		}
	}
	for th := 0; th < threads; th++ {
		live := m.live(th, la)
		for p, bits := range live {
			if model := m.marks[markKey{th, p, la}]; bits&^model != 0 {
				t.Fatalf("after op %+v: thread %d plane %d has marks %04b on %#x, the model only %04b",
					o, th, p, bits, la, model)
			}
		}
	}
}

// firstDrop returns the current operation's first drop event for thread
// th and line la.
func (m *markModel) firstDrop(th int, la uint64) (dropEvent, bool) {
	for _, e := range m.events {
		if e.core == th && e.line == la {
			return e, true
		}
	}
	return dropEvent{}, false
}
