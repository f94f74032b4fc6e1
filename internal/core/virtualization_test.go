package core

import (
	"testing"

	"hastm.dev/hastm/internal/cache"
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/stm"
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
	sys := stm.NewHASTM("hastm", machine, singleThreadCfg(tm.LineGranularity))
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
	sys := stm.NewHASTM("hastm-cautious", machine, cautiousCfg(singleThreadCfg(tm.LineGranularity)))
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
	sys := stm.NewHASTM("hastm-cautious", machine, cautiousCfg(singleThreadCfg(tm.LineGranularity)))
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
// in opposite orders — the classic deadlock shape — must resolve (bounded
// spinning aborts one side). The cases differ in the window between the two
// acquisitions: narrow ("wait"), 200 cycles ("polite"), or longer than the
// 16 backoff rounds ("abort-self"). At every width the cycle breaks only by
// a side giving up, and no update is lost.
func TestDeadlockShapedContentionResolves(t *testing.T) {
	for _, c := range []struct {
		name   string
		window uint64 // cycles between the two acquisitions
	}{
		{"polite", 200},
		{"wait", 1},
		{"abort-self", 1 << 19},
	} {
		t.Run(c.name, func(t *testing.T) {
			machine := testMachine(2)
			sys := stm.NewHASTM("hastm", machine, stm.DefaultHASTMConfig(tm.LineGranularity))
			a := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
			b := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
			mk := func(first, second uint64) sim.Program {
				return func(ctx *sim.Ctx) {
					th := sys.Thread(ctx)
					for i := 0; i < 10; i++ {
						if err := th.Atomic(func(tx tm.Txn) error {
							tx.Store(first, tx.Load(first)+1)
							tx.Exec(c.window) // the window for the cross acquisition
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
				t.Fatalf("lost updates: total = %d, want 40", got)
			}
			if machine.Stats.Aborts(telemetry.AbortLockConflict) == 0 {
				t.Fatal("no lock-conflict abort: only a side giving up can break the cycle")
			}
		})
	}
}
