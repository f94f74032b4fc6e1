package cache

import (
	"fmt"
	"testing"

	"hastm.dev/hastm/internal/mem"
)

// evalConfig is the evaluation machine's hierarchy: 32 KB 8-way L1s under
// one 256 KB 8-way L2, with the prefetcher.
func evalConfig(cores int) HierarchyConfig {
	return HierarchyConfig{
		Cores:    cores,
		L1:       Config{SizeBytes: 32 << 10, Assoc: 8},
		L2:       Config{SizeBytes: 256 << 10, Assoc: 8},
		Prefetch: true,
	}
}

var hierarchySink *Hierarchy

// BenchmarkHierarchyNew is the host cost of building the evaluation
// hierarchy, once per simulated cell; B/op is its footprint.
func BenchmarkHierarchyNew(b *testing.B) {
	for _, cores := range []int{1, 4} {
		b.Run(fmt.Sprintf("%dcore", cores), func(b *testing.B) {
			cfg := evalConfig(cores)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hierarchySink = New(cfg)
			}
		})
	}
}

// BenchmarkAccess drives Access with read streams that land in one level
// each on the evaluation machine's geometry, prefetcher off: a stream that
// fits a level always hits it after one pass, one that exceeds an LRU
// level always misses it.
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
			cfg := evalConfig(1)
			cfg.Prefetch = false
			h := New(cfg)
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
