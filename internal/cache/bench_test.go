package cache

import (
	"testing"

	"hastm.dev/hastm/internal/mem"
)

// BenchmarkClearAllMarks prices resetmarkall at two L1 sizes, as a
// transaction pays it: one line marked, then the plane reset. CI holds the
// 32 KB / 1 KB ratio under 10 (scripts/ci.sh bench): a walk of every line
// per reset scales with the cache (about 20× here), an epoch increment that
// walks the L1 once in sixteen resets much less (about 2.5×).
func BenchmarkClearAllMarks(b *testing.B) {
	for _, c := range []struct {
		name string
		l1   Config
	}{
		{"1KB", Config{SizeBytes: 1 << 10, Assoc: 2}},
		{"32KB", Config{SizeBytes: 32 << 10, Assoc: 8}},
	} {
		b.Run(c.name, func(b *testing.B) {
			h := New(HierarchyConfig{Cores: 1, L1: c.l1, L2: Config{SizeBytes: 256 << 10, Assoc: 8}})
			for i := 0; i < c.l1.SizeBytes/mem.LineSize; i++ {
				a := uint64(i) * mem.LineSize
				h.Access(0, a, false)
				h.SetMark(0, 0, a, mem.LineSize)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.SetMark(0, 0, 0, mem.LineSize)
				h.ClearAllMarks(0, 0)
			}
		})
	}
}

// BenchmarkAccess drives Access with read streams that land in one level
// each on the evaluation machine's geometry (32 KB 8-way L1, 256 KB 8-way
// L2): a stream that fits a level always hits it after one pass, one that
// exceeds an LRU level always misses it.
func BenchmarkAccess(b *testing.B) {
	for _, c := range []struct {
		name  string
		lines int
	}{
		{"L1Hit", 64},
		{"L2Hit", 2048},
		{"Miss", 32768},
	} {
		b.Run(c.name, func(b *testing.B) {
			h := New(HierarchyConfig{
				Cores: 1,
				L1:    Config{SizeBytes: 32 << 10, Assoc: 8},
				L2:    Config{SizeBytes: 256 << 10, Assoc: 8},
			})
			for i := 0; i < c.lines; i++ {
				h.Access(0, uint64(i)*mem.LineSize, false)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Access(0, uint64(i%c.lines)*mem.LineSize, false)
			}
		})
	}
}
