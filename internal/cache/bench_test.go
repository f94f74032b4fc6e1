package cache

import (
	"testing"

	"hastm.dev/hastm/internal/mem"
)

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
