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

func testMachine(cores int) *sim.Machine {
	cfg := sim.DefaultConfig(cores)
	cfg.L1 = cache.Config{SizeBytes: 8 << 10, Assoc: 4}
	cfg.L2 = cache.Config{SizeBytes: 64 << 10, Assoc: 8}
	return sim.New(cfg)
}

func singleThreadCfg(g tm.Granularity) Config {
	c := DefaultConfig(g)
	c.SingleThread = true
	return c
}

// interruptHook is the §5 interrupt cadence as a sim.FaultHook: at each
// grant, a core whose clock has moved at least period cycles past its last
// interrupt takes a ring transition, on which the hardware executes
// resetmarkall.
type interruptHook struct {
	period uint64
	last   []uint64 // per core: the clock of its last interrupt
}

func (h *interruptHook) OnGrant(c *sim.Ctx) {
	if c.Clock()-h.last[c.ID()] >= h.period {
		h.last[c.ID()] = c.Clock()
		c.InjectSuspend()
	}
}

// interruptEvery arms the interrupt cadence on machine.
func interruptEvery(machine *sim.Machine, period uint64) {
	machine.SetFaultHook(&interruptHook{period: period, last: make([]uint64, machine.Config().Cores)})
}

// runSingle executes body once under the given system on a 1-core machine.
func runSingle(t *testing.T, machine *sim.Machine, sys tm.System, n int, body func(tm.Txn) error) {
	t.Helper()
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		for i := 0; i < n; i++ {
			if err := th.Atomic(body); err != nil {
				t.Errorf("Atomic: %v", err)
			}
		}
	})
}

func TestHASTMCommitCorrectness(t *testing.T) {
	for _, g := range []tm.Granularity{tm.LineGranularity, tm.ObjectGranularity} {
		g := g
		t.Run(g.String(), func(t *testing.T) {
			machine := testMachine(1)
			sys := New(machine, singleThreadCfg(g))
			addr := machine.Mem.Alloc(128, 64)
			runSingle(t, machine, sys, 3, func(tx tm.Txn) error {
				v := tx.Load(addr)
				tx.Store(addr, v+1)
				return nil
			})
			if got := machine.Mem.Load(addr); got != 3 {
				t.Fatalf("counter = %d, want 3", got)
			}
		})
	}
}

func TestFilteringReducesBarrierWork(t *testing.T) {
	// Repeatedly re-reading the same locations: HASTM's second and later
	// barriers must take the 2-instruction fast path.
	machine := testMachine(1)
	sys := New(machine, singleThreadCfg(tm.LineGranularity))
	addr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	runSingle(t, machine, sys, 1, func(tx tm.Txn) error {
		for i := 0; i < 20; i++ {
			tx.Load(addr)
		}
		return nil
	})
	st := machine.Stats.Block(0)
	if st.Count(telemetry.FilteredReads) < 19 {
		t.Fatalf("FilteredReads = %d, want >= 19", st.Count(telemetry.FilteredReads))
	}
	if st.Count(telemetry.UnfilteredReads) != 1 {
		t.Fatalf("UnfilteredReads = %d, want 1", st.Count(telemetry.UnfilteredReads))
	}
}

func TestFilteredReadsAreCheaperThanSTM(t *testing.T) {
	run := func(build func(m *sim.Machine) tm.System) uint64 {
		machine := testMachine(1)
		sys := build(machine)
		addr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
		return func() uint64 {
			var wall uint64
			wall = machine.Run(func(c *sim.Ctx) {
				th := sys.Thread(c)
				_ = th.Atomic(func(tx tm.Txn) error {
					for i := 0; i < 100; i++ {
						tx.Load(addr)
					}
					return nil
				})
			})
			return wall
		}()
	}
	stmWall := run(func(m *sim.Machine) tm.System {
		return stm.New(m, tm.Config{Granularity: tm.LineGranularity})
	})
	hastmWall := run(func(m *sim.Machine) tm.System {
		return New(m, singleThreadCfg(tm.LineGranularity))
	})
	if hastmWall >= stmWall {
		t.Fatalf("HASTM (%d cycles) not faster than STM (%d) on a reuse-heavy transaction", hastmWall, stmWall)
	}
}

func TestFastValidationWhenUndisturbed(t *testing.T) {
	machine := testMachine(1)
	sys := New(machine, singleThreadCfg(tm.LineGranularity))
	addr := machine.Mem.Alloc(4*mem.LineSize, mem.LineSize)
	runSingle(t, machine, sys, 5, func(tx tm.Txn) error {
		for i := uint64(0); i < 4; i++ {
			tx.Load(addr + i*mem.LineSize)
		}
		return nil
	})
	st := machine.Stats.Block(0)
	if st.Count(telemetry.FastValidations) != 5 {
		t.Fatalf("FastValidations = %d, want 5", st.Count(telemetry.FastValidations))
	}
	if st.Count(telemetry.FullValidations) != 0 {
		t.Fatalf("FullValidations = %d, want 0", st.Count(telemetry.FullValidations))
	}
}

func TestSingleThreadGoesAggressive(t *testing.T) {
	machine := testMachine(1)
	sys := New(machine, singleThreadCfg(tm.LineGranularity))
	addr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	runSingle(t, machine, sys, 10, func(tx tm.Txn) error {
		tx.Load(addr)
		tx.Load(addr + 8)
		return nil
	})
	st := machine.Stats.Block(0)
	// First txn commits cautiously, then the controller flips aggressive.
	if st.Count(telemetry.CautiousCommits) != 1 {
		t.Fatalf("CautiousCommits = %d, want 1", st.Count(telemetry.CautiousCommits))
	}
	if st.Count(telemetry.AggressiveCommits) != 9 {
		t.Fatalf("AggressiveCommits = %d, want 9", st.Count(telemetry.AggressiveCommits))
	}
	if st.Count(telemetry.ReadLogsSkipped) == 0 {
		t.Fatal("aggressive mode never skipped read logging")
	}
}

func TestCautiousOnlyNeverAggressive(t *testing.T) {
	machine := testMachine(1)
	cfg := singleThreadCfg(tm.LineGranularity)
	sys := NewCautious(machine, cfg)
	addr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	runSingle(t, machine, sys, 5, func(tx tm.Txn) error {
		tx.Load(addr)
		return nil
	})
	st := machine.Stats.Block(0)
	if st.Count(telemetry.AggressiveCommits) != 0 {
		t.Fatalf("cautious-only committed aggressively %d times", st.Count(telemetry.AggressiveCommits))
	}
	if st.Count(telemetry.ReadLogsSkipped) != 0 {
		t.Fatal("cautious mode must always log reads")
	}
}

func TestNoReuseNeverFilters(t *testing.T) {
	machine := testMachine(1)
	sys := NewNoReuse(machine, singleThreadCfg(tm.LineGranularity))
	addr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	runSingle(t, machine, sys, 1, func(tx tm.Txn) error {
		for i := 0; i < 10; i++ {
			tx.Load(addr)
		}
		return nil
	})
	st := machine.Stats.Block(0)
	if st.Count(telemetry.FilteredReads) != 0 {
		t.Fatalf("NoReuse filtered %d reads", st.Count(telemetry.FilteredReads))
	}
	// It must still get fast validation (marks are set, counter stays 0).
	if st.Count(telemetry.FastValidations) == 0 {
		t.Fatal("NoReuse lost mark-counter validation")
	}
}

func TestAggressiveAbortFallsBackToCautious(t *testing.T) {
	// Two cores hammer the same line; aggressive commits will fail when
	// marks are invalidated, and the re-execution must be cautious (and
	// eventually commit).
	machine := testMachine(2)
	cfg := DefaultConfig(tm.LineGranularity)
	cfg.Mode = AlwaysAggressive
	sys := NewNamed("naive", machine, cfg)
	ctr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	const per = 40
	prog := func(c *sim.Ctx) {
		th := sys.Thread(c)
		for i := 0; i < per; i++ {
			if err := th.Atomic(func(tx tm.Txn) error {
				tx.Store(ctr, tx.Load(ctr)+1)
				return nil
			}); err != nil {
				t.Errorf("Atomic: %v", err)
			}
		}
	}
	machine.Run(prog, prog)
	if got := machine.Mem.Load(ctr); got != 2*per {
		t.Fatalf("counter = %d, want %d", got, 2*per)
	}
	if machine.Stats.Aborts(telemetry.AbortAggressive) == 0 {
		t.Fatal("expected aggressive-mode aborts under contention")
	}
}

func TestWatermarkStaysCautiousUnderContention(t *testing.T) {
	machine := testMachine(4)
	sys := New(machine, DefaultConfig(tm.LineGranularity))
	ctr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	prog := func(c *sim.Ctx) {
		th := sys.Thread(c)
		for i := 0; i < 30; i++ {
			_ = th.Atomic(func(tx tm.Txn) error {
				tx.Store(ctr, tx.Load(ctr)+1)
				return nil
			})
		}
	}
	machine.Run(prog, prog, prog, prog)
	if got := machine.Mem.Load(ctr); got != 120 {
		t.Fatalf("counter = %d, want 120", got)
	}
	st := machine.Stats
	// The watermark controller must hold aggressive mode back when most
	// transactions see interference, keeping aggressive aborts rare
	// compared with the naive policy.
	if ag := st.Aborts(telemetry.AbortAggressive); ag > st.Commits()/4 {
		t.Fatalf("watermark controller allowed %d aggressive aborts for %d commits", ag, st.Commits())
	}
}

func TestHASTMCorrectUnderContention(t *testing.T) {
	for _, g := range []tm.Granularity{tm.LineGranularity, tm.ObjectGranularity} {
		g := g
		t.Run(g.String(), func(t *testing.T) {
			machine := testMachine(4)
			sys := New(machine, DefaultConfig(g))
			var addrs []uint64
			if g == tm.ObjectGranularity {
				for i := 0; i < 4; i++ {
					addrs = append(addrs, stm.AllocObject(machine.Mem, 8))
				}
			} else {
				base := machine.Mem.Alloc(4*mem.LineSize, mem.LineSize)
				for i := uint64(0); i < 4; i++ {
					addrs = append(addrs, base+i*mem.LineSize)
				}
			}
			prog := func(c *sim.Ctx) {
				th := sys.Thread(c)
				for i := 0; i < 25; i++ {
					if err := th.Atomic(func(tx tm.Txn) error {
						// Move a token around four slots, preserving sum.
						var vals [4]uint64
						for j, a := range addrs {
							if g == tm.ObjectGranularity {
								vals[j] = tx.LoadObj(a, 8)
							} else {
								vals[j] = tx.Load(a)
							}
						}
						src := (c.ID() + i) % 4
						dst := (src + 1) % 4
						if g == tm.ObjectGranularity {
							tx.StoreObj(addrs[src], 8, vals[src]+1)
							tx.StoreObj(addrs[dst], 8, vals[dst]+1)
						} else {
							tx.Store(addrs[src], vals[src]+1)
							tx.Store(addrs[dst], vals[dst]+1)
						}
						return nil
					}); err != nil {
						t.Errorf("Atomic: %v", err)
					}
				}
			}
			machine.Run(prog, prog, prog, prog)
			var sum uint64
			for _, a := range addrs {
				if g == tm.ObjectGranularity {
					sum += machine.Mem.Load(a + 8)
				} else {
					sum += machine.Mem.Load(a)
				}
			}
			if sum != 4*25*2 {
				t.Fatalf("sum = %d, want %d", sum, 4*25*2)
			}
		})
	}
}

func TestGCPauseForcesFullValidation(t *testing.T) {
	machine := testMachine(1)
	sys := NewCautious(machine, singleThreadCfg(tm.LineGranularity))
	addr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c).(*stm.Thread)
		if err := th.Atomic(func(tx tm.Txn) error {
			tx.Load(addr)
			th.GCPause(nil) // discards marks, bumps the counter
			tx.Load(addr + 8)
			return nil
		}); err != nil {
			t.Errorf("Atomic: %v", err)
		}
	})
	st := machine.Stats.Block(0)
	if st.Count(telemetry.FullValidations) == 0 {
		t.Fatal("commit after a GC pause must fall back to full validation")
	}
	if st.Count(telemetry.Commits) != 1 || st.TotalAborts() != 0 {
		t.Fatalf("GC pause must not abort: commits=%d aborts=%d", st.Count(telemetry.Commits), st.TotalAborts())
	}
}

func TestAggressiveCommitFailsAfterInterruption(t *testing.T) {
	// With periodic interrupts enabled, aggressive transactions lose their
	// marks mid-flight and must abort + re-execute cautiously — never
	// return wrong data.
	machine := testMachine(1)
	interruptEvery(machine, 2000)
	sys := New(machine, singleThreadCfg(tm.LineGranularity))
	addr := machine.Mem.Alloc(8*mem.LineSize, mem.LineSize)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		for i := 0; i < 30; i++ {
			if err := th.Atomic(func(tx tm.Txn) error {
				for j := uint64(0); j < 8; j++ {
					tx.Load(addr + j*mem.LineSize)
				}
				tx.Store(addr, tx.Load(addr)+1)
				return nil
			}); err != nil {
				t.Errorf("Atomic: %v", err)
			}
		}
	})
	if got := machine.Mem.Load(addr); got != 30 {
		t.Fatalf("counter = %d, want 30", got)
	}
	st := machine.Stats.Block(0)
	if st.Aborts(telemetry.AbortAggressive) == 0 && st.Count(telemetry.FullValidations) == 0 {
		t.Fatal("interrupts never forced a software fallback — the model is not exercising virtualization")
	}
}

// TestHASTMOnDefaultISA checks Section 3.3: the same HASTM binary runs
// correctly (just unaccelerated) on a processor with the default
// implementation of the new instructions.
func TestHASTMOnDefaultISA(t *testing.T) {
	cfg := sim.DefaultConfig(2)
	cfg.L1 = cache.Config{SizeBytes: 8 << 10, Assoc: 4}
	cfg.L2 = cache.Config{SizeBytes: 64 << 10, Assoc: 8}
	cfg.DefaultISA = true
	machine := sim.New(cfg)
	sys := New(machine, DefaultConfig(tm.LineGranularity))
	ctr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	const per = 30
	prog := func(c *sim.Ctx) {
		th := sys.Thread(c)
		for i := 0; i < per; i++ {
			if err := th.Atomic(func(tx tm.Txn) error {
				tx.Store(ctr, tx.Load(ctr)+1)
				return nil
			}); err != nil {
				t.Errorf("Atomic: %v", err)
			}
		}
	}
	machine.Run(prog, prog)
	if got := machine.Mem.Load(ctr); got != 2*per {
		t.Fatalf("counter = %d, want %d", got, 2*per)
	}
	st := machine.Stats.Block(0)
	if st.Count(telemetry.FilteredReads) != 0 {
		t.Fatal("default ISA must never report a marked line")
	}
	if st.Count(telemetry.FastValidations) != 0 {
		t.Fatal("default ISA must never skip validation (loadsetmark bumps the counter)")
	}
}

func TestInterAtomicReuseFiltersAcrossBlocks(t *testing.T) {
	// Fig 10: with InterAtomic enabled and aggressive mode, the second
	// atomic block's read of the same object takes the fast path.
	machine := testMachine(1)
	cfg := singleThreadCfg(tm.LineGranularity)
	cfg.InterAtomic = true
	sys := NewNamed("hastm-interatomic", machine, cfg)
	addr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		for i := 0; i < 5; i++ {
			if err := th.Atomic(func(tx tm.Txn) error {
				tx.Load(addr)
				return nil
			}); err != nil {
				t.Errorf("Atomic: %v", err)
			}
		}
	})
	st := machine.Stats.Block(0)
	if st.Count(telemetry.FilteredReads) == 0 {
		t.Fatal("inter-atomic reuse never filtered across blocks")
	}
}

func TestNestedTransactionsAccelerated(t *testing.T) {
	// §5: HASTM needs no extra mechanism for nesting; nested transactions
	// with partial rollback must work and still commit with acceleration.
	machine := testMachine(1)
	sys := New(machine, singleThreadCfg(tm.LineGranularity))
	a := machine.Mem.Alloc(2*mem.LineSize, mem.LineSize)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		err := th.Atomic(func(tx tm.Txn) error {
			tx.Store(a, 1)
			_ = tx.Atomic(func(in tm.Txn) error {
				in.Store(a+mem.LineSize, 5)
				in.Abort() // note: full abort per user-abort semantics
				return nil
			})
			return nil
		})
		if err != tm.ErrUserAbort {
			t.Errorf("user abort inside nested txn: err=%v", err)
		}
	})
	if machine.Mem.Load(a) != 0 || machine.Mem.Load(a+mem.LineSize) != 0 {
		t.Fatal("user abort must roll back everything")
	}
}

func TestModePolicyStrings(t *testing.T) {
	if CautiousOnly.String() != "cautious-only" || Watermark.String() != "watermark" || AlwaysAggressive.String() != "always-aggressive" {
		t.Fatal("ModePolicy String() mismatch")
	}
}

// TestHASTMCorrectOnSMT runs HASTM on an SMT machine (two cores, two
// hardware threads each, §3.1): per-thread mark bits in the shared L1,
// sibling stores invalidating them. Atomicity must be preserved and the
// sibling-store channel must actually fire.
func TestHASTMCorrectOnSMT(t *testing.T) {
	cfg := sim.DefaultConfig(4)
	cfg.ThreadsPerCore = 2
	cfg.L1 = cache.Config{SizeBytes: 8 << 10, Assoc: 4}
	cfg.L2 = cache.Config{SizeBytes: 64 << 10, Assoc: 8}
	machine := sim.New(cfg)
	sys := New(machine, DefaultConfig(tm.LineGranularity))
	ctr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	const per = 40
	prog := func(c *sim.Ctx) {
		th := sys.Thread(c)
		for i := 0; i < per; i++ {
			if err := th.Atomic(func(tx tm.Txn) error {
				tx.Store(ctr, tx.Load(ctr)+1)
				return nil
			}); err != nil {
				t.Errorf("Atomic: %v", err)
			}
		}
	}
	machine.Run(prog, prog, prog, prog)
	if got := machine.Mem.Load(ctr); got != 4*per {
		t.Fatalf("counter = %d, want %d", got, 4*per)
	}
}
