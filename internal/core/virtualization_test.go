package core

import (
	"testing"

	"hastm.dev/hastm/internal/cache"
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// Tests of the paper's virtualization claims (§2, §5): HASTM accelerates
// ALL transactions — ones that exceed the cache, span scheduling quanta,
// or get suspended — because the hardware never owns the transaction
// state; losing marks only costs the software fast paths.

// TestTransactionLargerThanL1Commits: a transaction whose footprint
// exceeds the L1 must still commit (an HTM would capacity-abort forever).
// Its own evictions discard marks, so it completes via full software
// validation — accelerated where possible, correct always.
func TestTransactionLargerThanL1Commits(t *testing.T) {
	cfg := sim.DefaultConfig(1)
	cfg.L1 = cache.Config{SizeBytes: 8 << 10, Assoc: 4} // 128 lines
	cfg.L2 = cache.Config{SizeBytes: 512 << 10, Assoc: 8}
	machine := sim.New(cfg)
	sys := New(machine, singleThreadCfg(tm.LineGranularity))
	const lines = 512 // 4x the L1
	base := machine.Mem.Alloc(lines*mem.LineSize, mem.LineSize)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		for n := 0; n < 3; n++ {
			if err := th.Atomic(func(tx tm.Txn) error {
				var sum uint64
				for i := uint64(0); i < lines; i++ {
					sum += tx.Load(base + i*mem.LineSize)
				}
				tx.Store(base, sum+1)
				return nil
			}); err != nil {
				t.Errorf("large transaction: %v", err)
			}
		}
	})
	st := machine.Stats.Block(0)
	if st.Count(telemetry.Commits) != 3 {
		t.Fatalf("commits = %d, want 3", st.Count(telemetry.Commits))
	}
	// The overflowing footprint must have forced software validation at
	// least once (marks evicted -> counter non-zero).
	if st.Count(telemetry.FullValidations) == 0 && st.Aborts(telemetry.AbortAggressive) == 0 {
		t.Fatal("an L1-overflowing transaction should have lost marks")
	}
}

// TestLongTransactionSpansSchedulingQuanta: with periodic interrupts (ring
// transitions clearing all marks), a long transaction still commits — the
// §5 claim that an interrupt "does not abort the transaction - it merely
// causes a full software validation on commit".
func TestLongTransactionSpansSchedulingQuanta(t *testing.T) {
	machine := sim.New(sim.DefaultConfig(1))
	interruptEvery(machine, 1500)
	sys := NewCautious(machine, singleThreadCfg(tm.LineGranularity))
	base := machine.Mem.Alloc(64*mem.LineSize, mem.LineSize)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		if err := th.Atomic(func(tx tm.Txn) error {
			for round := 0; round < 20; round++ {
				for i := uint64(0); i < 64; i++ {
					tx.Load(base + i*mem.LineSize)
				}
				tx.Exec(500) // guarantee several quanta elapse
			}
			tx.Store(base, 1)
			return nil
		}); err != nil {
			t.Errorf("long transaction: %v", err)
		}
	})
	st := machine.Stats.Block(0)
	if st.Count(telemetry.Commits) != 1 {
		t.Fatalf("commits = %d, want 1", st.Count(telemetry.Commits))
	}
	if st.Aborts(telemetry.AbortValidation) != 0 || st.Aborts(telemetry.AbortLockConflict) != 0 {
		t.Fatal("interrupts caused conflict aborts on an uncontended transaction")
	}
	if st.Count(telemetry.FullValidations) == 0 {
		t.Fatal("interrupts should have forced software validation")
	}
}

// TestResumedTransactionStillFilters: §5 — "On resumption, the transaction
// benefits from marking and temporal locality and hence gets accelerated,
// though [it] does not leverage the marking it performed before
// interruption". After a mid-transaction ring transition, re-reads mark
// again and subsequent barriers filter again.
func TestResumedTransactionStillFilters(t *testing.T) {
	machine := testMachine(1)
	sys := NewCautious(machine, singleThreadCfg(tm.LineGranularity))
	addr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		if err := th.Atomic(func(tx tm.Txn) error {
			tx.Load(addr) // marks
			tx.Load(addr) // filtered
			c.RingTransition()
			before := machine.Stats.Block(0).Count(telemetry.FilteredReads)
			tx.Load(addr) // slow path again (marks gone) — re-marks
			tx.Load(addr) // filtered again
			after := machine.Stats.Block(0).Count(telemetry.FilteredReads)
			if after != before+1 {
				t.Errorf("post-resume filtering: filtered %d -> %d, want +1", before, after)
			}
			return nil
		}); err != nil {
			t.Errorf("Atomic: %v", err)
		}
	})
	if machine.Stats.TotalAborts() != 0 {
		t.Fatal("the interruption must not abort the transaction")
	}
}

// TestDeadlockShapedContentionResolves: two threads acquiring two records
// in opposite orders — the classic deadlock shape — must resolve under
// every contention policy (bounded spinning aborts one side).
func TestDeadlockShapedContentionResolves(t *testing.T) {
	for _, pol := range []tm.Policy{tm.PoliteBackoff, tm.AbortSelf, tm.Wait} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			machine := testMachine(2)
			cfg := DefaultConfig(tm.LineGranularity)
			cfg.TM.Policy = pol
			sys := New(machine, cfg)
			a := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
			b := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
			mk := func(first, second uint64) sim.Program {
				return func(c *sim.Ctx) {
					th := sys.Thread(c)
					for i := 0; i < 10; i++ {
						if err := th.Atomic(func(tx tm.Txn) error {
							tx.Store(first, tx.Load(first)+1)
							tx.Exec(200) // widen the window for the cross acquisition
							tx.Store(second, tx.Load(second)+1)
							return nil
						}); err != nil {
							t.Errorf("Atomic: %v", err)
						}
					}
				}
			}
			machine.Run(mk(a, b), mk(b, a))
			if got := machine.Mem.Load(a) + machine.Mem.Load(b); got != 40 {
				t.Fatalf("lost updates under %v: total = %d, want 40", pol, got)
			}
		})
	}
}

// TestTwoLevelFilterCorrectAndHelpful: under L1 capacity pressure the data
// lines evict, but the (aliased, hotter) record lines survive; the §5
// two-level option then answers barriers at the record level. Correctness
// under contention and a barrier-work reduction are both required.
func TestTwoLevelFilterCorrectAndHelpful(t *testing.T) {
	run := func(twoLevel bool) (uint64, uint64) {
		cfg := sim.DefaultConfig(1)
		cfg.L1 = cache.Config{SizeBytes: 8 << 10, Assoc: 8} // 128 lines
		cfg.L2 = cache.Config{SizeBytes: 2 << 20, Assoc: 8}
		machine := sim.New(cfg)
		hcfg := singleThreadCfg(tm.LineGranularity)
		hcfg.Mode = CautiousOnly // isolate the two-level effect
		hcfg.TwoLevelFilter = twoLevel
		sys := NewNamed("x", machine, hcfg)
		// Records alias every 256 KiB (address bits 6-17): eight columns
		// spaced 256 KiB apart share one record per row, so 512 distinct
		// data lines (thrashing the 128-line L1) map onto just 64 hot
		// record lines that stay resident.
		const columns, rows = 8, 64
		base := machine.Mem.Alloc(columns*(1<<18), mem.LineSize)
		machine.Run(func(c *sim.Ctx) {
			th := sys.Thread(c)
			if err := th.Atomic(func(tx tm.Txn) error {
				for pass := 0; pass < 3; pass++ {
					for row := uint64(0); row < rows; row++ {
						for col := uint64(0); col < columns; col++ {
							tx.Load(base + col*(1<<18) + row*mem.LineSize)
						}
					}
				}
				return nil
			}); err != nil {
				t.Errorf("Atomic: %v", err)
			}
		})
		st := machine.Stats.Block(0)
		return st.Cycles(telemetry.RdBar), st.Count(telemetry.FilteredReads)
	}
	plainBar, plainFiltered := run(false)
	twoBar, twoFiltered := run(true)
	if twoFiltered <= plainFiltered {
		t.Fatalf("two-level filter did not filter more reads: %d vs %d", twoFiltered, plainFiltered)
	}
	if twoBar >= plainBar {
		t.Fatalf("two-level filter did not reduce barrier cycles: %d vs %d", twoBar, plainBar)
	}
}

// TestTwoLevelFilterConcurrentInvariant: the second-level skip must never
// admit a stale read under contention.
func TestTwoLevelFilterConcurrentInvariant(t *testing.T) {
	machine := testMachine(4)
	cfg := DefaultConfig(tm.LineGranularity)
	cfg.TwoLevelFilter = true
	sys := NewNamed("x", machine, cfg)
	a := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	b := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	machine.Mem.Store(a, 300)
	prog := func(c *sim.Ctx) {
		th := sys.Thread(c)
		for i := 0; i < 25; i++ {
			_ = th.Atomic(func(tx tm.Txn) error {
				va := tx.Load(a)
				if va == 0 {
					return nil
				}
				tx.Store(a, va-1)
				tx.Store(b, tx.Load(b)+1)
				return nil
			})
		}
	}
	machine.Run(prog, prog, prog, prog)
	if sum := machine.Mem.Load(a) + machine.Mem.Load(b); sum != 300 {
		t.Fatalf("invariant violated with two-level filtering: sum = %d", sum)
	}
}
