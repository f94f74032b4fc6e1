package lazystm

import (
	"testing"

	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/tm"
)

// Deferred-update barrier benchmarks, mirroring internal/stm's set. The
// extra lazy-specific costs these price are the write-buffer lookup on every
// read barrier and the
// commit-time acquire/validate/write-back walk; the MVCC benchmarks price
// the snapshot read path (no read log, no validation) against them.
//
// Each benchmark builds one machine and runs all b.N transactions inside a
// single machine.Run program (Run panics if called twice), resetting the
// timer after warmup so only steady-state barrier work is measured.

const benchRegionWords = 64

func benchMachine() *sim.Machine {
	cfg := sim.DefaultConfig(1)
	return sim.New(cfg)
}

func benchCfg() tm.Config {
	return tm.Config{Granularity: tm.LineGranularity, ValidateEvery: 128}
}

// BenchmarkLazyReadBarrier measures the deferred-update read barrier with
// an empty write buffer: a miss in the buffer index, then a logged read —
// the floor every lazy read pays over the eager scheme's.
func BenchmarkLazyReadBarrier(b *testing.B) {
	machine := benchMachine()
	sys := New(machine, benchCfg())
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

// BenchmarkLazyWriteBarrier measures the deferred-update write path end to
// end: buffer a handful of hot words, then the three-phase commit
// (acquire, validate the empty read set, write back, release).
func BenchmarkLazyWriteBarrier(b *testing.B) {
	machine := benchMachine()
	sys := New(machine, benchCfg())
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

// BenchmarkLazyMixedTxn measures a read-mostly transaction (the workloads'
// common shape): 24 reads, 2 buffered writes, three-phase commit.
func BenchmarkLazyMixedTxn(b *testing.B) {
	machine := benchMachine()
	sys := New(machine, benchCfg())
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

// BenchmarkMVCCSnapshotRead measures the MVCC read-only fast path: a
// snapshot transaction re-reading a small region — timestamp checks
// against the commit clock, no read log growth, and a commit with no
// validation pass at all.
func BenchmarkMVCCSnapshotRead(b *testing.B) {
	machine := benchMachine()
	sys := NewMVCC(machine, benchCfg())
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

// BenchmarkMVCCMixedTxn measures the MVCC upgrade shape: every transaction
// starts as a snapshot, reads 24 words, then upgrades to writer mode on
// its first store — the price of optimistically assuming read-only.
func BenchmarkMVCCMixedTxn(b *testing.B) {
	machine := benchMachine()
	sys := NewMVCC(machine, benchCfg())
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
