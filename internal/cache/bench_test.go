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

// BenchmarkAccess drives Access with streams that land in one level each
// on the evaluation machine's geometry, prefetcher off: a stream that fits
// a level always hits it after one pass, one that exceeds an LRU level
// always misses it. L1Hit reads and L1WriteHit stores to Modified lines:
// Access serves both inline. Upgrade is the first store to a Shared line,
// which takes the out-of-line path: another core reads every line back
// between passes, with the timer stopped, so each store invalidates a copy.
func BenchmarkAccess(b *testing.B) {
	for _, c := range []struct {
		name  string
		lines int
		write bool
	}{
		{"L1Hit", 64, false},
		{"L1WriteHit", 64, true},
		{"L2Hit", 2048, false},
		{"Miss", 32768, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := evalConfig(1)
			cfg.Prefetch = false
			h := New(cfg)
			for i := 0; i < c.lines; i++ {
				h.Access(0, uint64(i)*mem.LineSize, c.write)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Access(0, uint64(i%c.lines)*mem.LineSize, c.write)
			}
		})
	}
	b.Run("Upgrade", func(b *testing.B) {
		const lines = 256
		cfg := evalConfig(2)
		cfg.Prefetch = false
		h := New(cfg)
		for i := 0; i < lines; i++ {
			h.Access(0, uint64(i)*mem.LineSize, false)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			addr := uint64(i%lines) * mem.LineSize
			if addr == 0 {
				b.StopTimer()
				for j := 0; j < lines; j++ {
					h.Access(1, uint64(j)*mem.LineSize, false)
				}
				b.StartTimer()
			}
			h.Access(0, addr, true)
		}
	})
}
