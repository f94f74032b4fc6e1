package core

import (
	"testing"

	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/tm"
)

// HASTM barrier fast-path benchmarks (see internal/stm/bench_test.go for
// what holds them). The interesting fast path here is the filtered read barrier:
// a loadtestmark hit skips version checking and read logging entirely, so
// any allocation or telemetry cost added to it shows up immediately.

const benchRegionWords = 64

// runHASTMBench executes b.N transactions of body on a fresh single-core
// machine with the given config, timing only the steady state.
func runHASTMBench(b *testing.B, cfg Config, body func(tx tm.Txn, base uint64) error) {
	machine := sim.New(sim.DefaultConfig(1))
	sys := New(machine, cfg)
	base := machine.Mem.Alloc(benchRegionWords*8, 64)
	for i := uint64(0); i < benchRegionWords; i++ {
		machine.Mem.Store(base+i*8, i)
	}
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		fn := func(tx tm.Txn) error { return body(tx, base) }
		for i := 0; i < 4; i++ { // warmup: caches, marks and mode settle
			if err := th.Atomic(fn); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := th.Atomic(fn); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func readAll(tx tm.Txn, base uint64) error {
	for i := uint64(0); i < benchRegionWords; i++ {
		tx.Load(base + i*8)
	}
	return nil
}

// BenchmarkFilteredReadBarrier: cache-resident reads with the mark filter
// on — after the first pass each barrier is a loadtestmark hit.
func BenchmarkFilteredReadBarrier(b *testing.B) {
	runHASTMBench(b, DefaultConfig(tm.LineGranularity), readAll)
}

// BenchmarkUnfilteredReadBarrier: the NoReuse ablation — barriers still
// mark lines but never skip version checks or logging, isolating the
// filter's saving.
func BenchmarkUnfilteredReadBarrier(b *testing.B) {
	cfg := DefaultConfig(tm.LineGranularity)
	cfg.Filter = false
	runHASTMBench(b, cfg, readAll)
}

// BenchmarkAggressiveReadBarrier: single-thread config, so the watermark
// controller runs every transaction aggressively and commits validate via
// the mark counter alone (no read set at all).
func BenchmarkAggressiveReadBarrier(b *testing.B) {
	cfg := DefaultConfig(tm.LineGranularity)
	cfg.SingleThread = true
	runHASTMBench(b, cfg, readAll)
}

// BenchmarkHASTMMixedTxn: the common read-mostly shape with the full
// HASTM barrier stack (filtered reads + undo-logged writes).
func BenchmarkHASTMMixedTxn(b *testing.B) {
	runHASTMBench(b, DefaultConfig(tm.LineGranularity), func(tx tm.Txn, base uint64) error {
		for i := uint64(0); i < 24; i++ {
			tx.Load(base + i*8)
		}
		tx.Store(base+24*8, 1)
		tx.Store(base+25*8, 2)
		return nil
	})
}
