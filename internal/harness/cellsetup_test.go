package harness

import (
	"fmt"
	"runtime"
	"testing"
)

// benchCell is the repository benchmark's sim-4core cell size.
func benchCell(ops int) Options {
	o := DefaultOptions()
	o.Ops, o.Warmup = ops, 64
	return o
}

// allocBytes returns the host bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// The host memory of a cell follows what the run stores to, not what the
// machine reserves: logs, record table and structures are backed page by
// page on first store (internal/mem). Ceilings carry ~35% headroom over the
// measured 0.73 MB and 10.3 MB; eager backing measured 7.1 MB and 409 MB.
func TestCellAllocBytesCeiling(t *testing.T) {
	for _, tc := range []struct {
		name         string
		cores, ops   int
		ceilingBytes uint64
	}{
		{"bench cell, 4 cores", 4, 256, 1_000_000},
		{"256 threads built and initialised", 256, 256, 14_000_000},
	} {
		got := allocBytes(func() {
			if _, err := RunOne("stm", "bst", tc.cores, benchCell(tc.ops), 20); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.ceilingBytes {
			t.Errorf("%s: %d bytes allocated, ceiling %d", tc.name, got, tc.ceilingBytes)
		}
	}
}

// BenchmarkCellSetup is the fixed cost of one cell — machine, scheme,
// populate, warm-up, barrier — with the measured phase cut to one operation
// per thread. Its B/op is gated (cmd/benchgate), so eagerly backing the
// simulated memory again fails CI.
func BenchmarkCellSetup(b *testing.B) {
	for _, cores := range []int{1, 4} {
		b.Run(fmt.Sprintf("%dcore", cores), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunOne("stm", "bst", cores, benchCell(cores), 20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
