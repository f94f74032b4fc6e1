package core

import (
	"errors"
	"testing"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/stm"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

func wfilterCfg() Config {
	c := DefaultConfig(tm.LineGranularity)
	c.SingleThread = true
	c.FilterWrites = true
	return c
}

func TestWriteFilterSkipsRedundantWork(t *testing.T) {
	machine := testMachine(1)
	sys := NewNamed("hastm-wfilter", machine, wfilterCfg())
	addr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		if err := th.Atomic(func(tx tm.Txn) error {
			for i := uint64(0); i < 10; i++ {
				tx.Store(addr, i) // same word, same record, ten times
			}
			return nil
		}); err != nil {
			t.Errorf("Atomic: %v", err)
		}
	})
	st := machine.Stats.Block(0)
	if st.Count(telemetry.FilteredWrites) < 9 {
		t.Errorf("FilteredWrites = %d, want >= 9 (record re-acquisition elided)", st.Count(telemetry.FilteredWrites))
	}
	if st.Count(telemetry.UndoLogsSkipped) < 9 {
		t.Errorf("UndoLogsSkipped = %d, want >= 9 (duplicate old-value logging elided)", st.Count(telemetry.UndoLogsSkipped))
	}
	if machine.Mem.Load(addr) != 9 {
		t.Fatalf("final value = %d", machine.Mem.Load(addr))
	}
}

func TestWriteFilterRollbackRestoresSubBlock(t *testing.T) {
	// The extension logs whole 16-byte sub-blocks; an abort must restore
	// both words even when only one was stored before the duplicate-skips.
	machine := testMachine(1)
	sys := NewNamed("hastm-wfilter", machine, wfilterCfg())
	addr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	machine.Mem.Store(addr, 100)
	machine.Mem.Store(addr+8, 200) // same 16B sub-block
	boom := errors.New("boom")
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		err := th.Atomic(func(tx tm.Txn) error {
			tx.Store(addr, 1)   // logs the whole sub-block, marks it
			tx.Store(addr+8, 2) // filtered: no new undo entry
			tx.Store(addr, 3)   // filtered
			return boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("err = %v", err)
		}
	})
	if machine.Mem.Load(addr) != 100 || machine.Mem.Load(addr+8) != 200 {
		t.Fatalf("rollback incomplete: %d, %d (want 100, 200)",
			machine.Mem.Load(addr), machine.Mem.Load(addr+8))
	}
}

func TestWriteFilterNestedPartialRollbackIsSound(t *testing.T) {
	// The stale-mark hazard: a nested transaction acquires a record and
	// marks it on the write plane; the nested rollback releases the
	// record. A later write in the OUTER transaction must NOT trust the
	// stale plane-1 mark — it must re-acquire the record properly.
	machine := testMachine(1)
	sys := NewNamed("hastm-wfilter", machine, wfilterCfg())
	a := machine.Mem.Alloc(2*mem.LineSize, mem.LineSize)
	boom := errors.New("inner")
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		if err := th.Atomic(func(tx tm.Txn) error {
			_ = tx.Atomic(func(in tm.Txn) error {
				in.Store(a, 7) // acquire + plane-1 mark
				return boom    // partial rollback releases the record
			})
			// If the stale mark were trusted, this store would skip
			// acquisition and write an unowned record's data.
			tx.Store(a, 9)
			return nil
		}); err != nil {
			t.Errorf("Atomic: %v", err)
		}
	})
	if machine.Mem.Load(a) != 9 {
		t.Fatalf("outer write lost: %d", machine.Mem.Load(a))
	}
	// The record must be released (shared) after commit.
	rec := sys.Table().RecordFor(a)
	if v := machine.Mem.Load(rec); !stm.IsVersion(v) {
		t.Fatalf("record left owned: %#x", v)
	}
	if machine.Stats.Commits() != 1 {
		t.Fatalf("commits = %d", machine.Stats.Commits())
	}
}

func TestWriteFilterConcurrentInvariant(t *testing.T) {
	machine := testMachine(4)
	cfg := DefaultConfig(tm.LineGranularity)
	cfg.FilterWrites = true
	sys := NewNamed("hastm-wfilter", machine, cfg)
	a := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	b := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	machine.Mem.Store(a, 400)
	prog := func(c *sim.Ctx) {
		th := sys.Thread(c)
		for i := 0; i < 30; i++ {
			_ = th.Atomic(func(tx tm.Txn) error {
				va := tx.Load(a)
				if va == 0 {
					return nil
				}
				tx.Store(a, va-1)
				tx.Store(b, tx.Load(b)+1)
				// Redundant re-stores exercise the filter under contention.
				tx.Store(a, va-1)
				tx.Store(b, tx.Load(b))
				return nil
			})
		}
	}
	machine.Run(prog, prog, prog, prog)
	if sum := machine.Mem.Load(a) + machine.Mem.Load(b); sum != 400 {
		t.Fatalf("invariant violated: sum = %d", sum)
	}
}

func TestWriteFilterFasterOnWriteHeavyTxns(t *testing.T) {
	run := func(filterWrites bool) uint64 {
		machine := testMachine(1)
		cfg := wfilterCfg()
		cfg.FilterWrites = filterWrites
		sys := NewNamed("x", machine, cfg)
		base := machine.Mem.Alloc(8*mem.LineSize, mem.LineSize)
		var wall uint64
		machine.Run(func(c *sim.Ctx) {
			th := sys.Thread(c)
			for n := 0; n < 10; n++ {
				if err := th.Atomic(func(tx tm.Txn) error {
					// Write-heavy with high store reuse.
					for i := 0; i < 60; i++ {
						w := base + uint64(i%16)*8
						tx.Store(w, uint64(i))
					}
					return nil
				}); err != nil {
					t.Errorf("Atomic: %v", err)
				}
			}
			wall = c.Clock()
		})
		return wall
	}
	plain := run(false)
	filtered := run(true)
	if filtered >= plain {
		t.Fatalf("write filtering did not pay off: %d vs %d cycles", filtered, plain)
	}
}

func TestWriteFilterOnDefaultISAStillCorrect(t *testing.T) {
	cfg := sim.DefaultConfig(1)
	cfg.DefaultISA = true
	machine := sim.New(cfg)
	sys := NewNamed("hastm-wfilter", machine, wfilterCfg())
	addr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		for i := 0; i < 5; i++ {
			if err := th.Atomic(func(tx tm.Txn) error {
				tx.Store(addr, tx.Load(addr)+1)
				tx.Store(addr, tx.Load(addr)+1)
				return nil
			}); err != nil {
				t.Errorf("Atomic: %v", err)
			}
		}
	})
	if machine.Mem.Load(addr) != 10 {
		t.Fatalf("counter = %d, want 10", machine.Mem.Load(addr))
	}
	if machine.Stats.Block(0).Count(telemetry.FilteredWrites) != 0 {
		t.Fatal("default ISA must never filter")
	}
}

func TestWriteFilterSurvivesGCPause(t *testing.T) {
	machine := testMachine(1)
	sys := NewNamed("hastm-wfilter", machine, wfilterCfg())
	addr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	machine.Mem.Store(addr, 50)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c).(*stm.Thread)
		if err := th.Atomic(func(tx tm.Txn) error {
			tx.Store(addr, 1)
			th.GCPause(nil) // discards ALL plane marks
			tx.Store(addr, 2)
			tx.Abort() // everything must still roll back
			return nil
		}); err != tm.ErrUserAbort {
			t.Errorf("err = %v", err)
		}
	})
	if machine.Mem.Load(addr) != 50 {
		t.Fatalf("rollback across GC pause failed: %d", machine.Mem.Load(addr))
	}
}

// The write filter logs a store's whole 16-byte sub-block, but a word of it
// past the last allocation is no data: logging it would load beyond the
// memory's limit and fault. The last word allocated, alone in its
// sub-block, stores and rolls back like any other.
func TestWriteFilterSkipsPaddingWord(t *testing.T) {
	machine := testMachine(1)
	sys := NewNamed("hastm-wfilter", machine, wfilterCfg())
	boom := errors.New("boom")
	var addr uint64
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)             // allocates the thread's logs
		addr = machine.Mem.Alloc(8, 16) // the last allocation: addr+8 lies past the limit
		if err := th.Atomic(func(tx tm.Txn) error { tx.Store(addr, 4); return boom }); !errors.Is(err, boom) {
			t.Errorf("Atomic: %v", err)
		}
		if err := th.Atomic(func(tx tm.Txn) error { tx.Store(addr, 5); return nil }); err != nil {
			t.Errorf("Atomic: %v", err)
		}
	})
	if err := machine.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	if got := machine.Mem.Load(addr); got != 5 {
		t.Fatalf("word = %d, want 5", got)
	}
}
