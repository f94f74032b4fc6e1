package cache

import (
	"math/rand"
	"testing"

	"hastm.dev/hastm/internal/mem"
)

// FuzzHierarchy decodes bytes into the operation mix of
// TestAccessStreamFingerprint — the first byte picks the geometry (low
// bits), the last 256 lines below AddrLimit instead of the first 256 above
// base (bit 6) and the prefetcher (top bit), every following four bytes
// one operation (kind, thread, line, argument) — and checks the directory
// and data-path invariants after every operation.
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
		for data = data[1:]; len(data) >= 4; data = data[4:] {
			streamOp{int(data[0]), int(data[1]) % g.threads, first + int(data[2]), int(data[3])}.apply(h, fp)
			checkDirectory(t, h)
		}
	})
}
