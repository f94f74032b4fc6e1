package stm

import (
	"testing"

	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/tm"
)

// Barrier fast-path benchmarks: the rungs under the repository benchmark
// (bench/), whose host_allocs_per_txn bound on sim-1core and sim-4core is
// what fails a change that allocates in a barrier. The telemetry subsystem's
// disabled-path cost (a nil check per event) lives inside these numbers.
//
// Each benchmark builds one machine and runs all b.N transactions inside a
// single machine.Run program (Run panics if called twice), resetting the
// timer after warmup so only steady-state barrier work is measured.

const benchRegionWords = 64

func benchMachine() *sim.Machine {
	cfg := sim.DefaultConfig(1)
	return sim.New(cfg)
}

// BenchmarkReadBarrier measures the STM read-barrier fast path: an
// L1-resident transaction re-reading a small region, so every barrier is a
// filtered/logged read with no misses and validation is pure log walking.
func BenchmarkReadBarrier(b *testing.B) {
	machine := benchMachine()
	sys := New(machine, tm.Config{Granularity: tm.LineGranularity, ValidateEvery: 128})
	base := machine.Mem.Alloc(benchRegionWords*8, 64)
	for i := uint64(0); i < benchRegionWords; i++ {
		machine.Mem.Store(base+i*8, i)
	}
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		body := func(tx tm.Txn) error {
			for i := uint64(0); i < benchRegionWords; i++ {
				tx.Load(base + i*8)
			}
			return nil
		}
		for i := 0; i < 4; i++ { // warmup: caches hot, logs at capacity
			if err := th.Atomic(body); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := th.Atomic(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWriteBarrier measures the write-barrier fast path: acquire,
// undo-log and release a handful of hot words per transaction.
func BenchmarkWriteBarrier(b *testing.B) {
	machine := benchMachine()
	sys := New(machine, tm.Config{Granularity: tm.LineGranularity, ValidateEvery: 128})
	base := machine.Mem.Alloc(benchRegionWords*8, 64)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		body := func(tx tm.Txn) error {
			for i := uint64(0); i < 8; i++ {
				tx.Store(base+i*8, i)
			}
			return nil
		}
		for i := 0; i < 4; i++ {
			if err := th.Atomic(body); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := th.Atomic(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMixedTxn measures a read-mostly transaction (the workloads'
// common shape): 24 reads, 2 writes, commit.
func BenchmarkMixedTxn(b *testing.B) {
	machine := benchMachine()
	sys := New(machine, tm.Config{Granularity: tm.LineGranularity, ValidateEvery: 128})
	base := machine.Mem.Alloc(benchRegionWords*8, 64)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		body := func(tx tm.Txn) error {
			for i := uint64(0); i < 24; i++ {
				tx.Load(base + i*8)
			}
			tx.Store(base+24*8, 1)
			tx.Store(base+25*8, 2)
			return nil
		}
		for i := 0; i < 4; i++ {
			if err := th.Atomic(body); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := th.Atomic(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
