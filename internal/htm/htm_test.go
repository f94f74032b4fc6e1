package htm

import (
	"errors"
	"testing"

	"hastm.dev/hastm/internal/cache"
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

func testMachine(cores int) *sim.Machine {
	cfg := sim.DefaultConfig(cores)
	cfg.L1 = cache.Config{SizeBytes: 8 << 10, Assoc: 4}
	cfg.L2 = cache.Config{SizeBytes: 64 << 10, Assoc: 8}
	return sim.New(cfg)
}

func TestHTMCommit(t *testing.T) {
	machine := testMachine(1)
	sys := NewHTM(machine)
	addr := machine.Mem.Alloc(64, 8)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		if err := th.Atomic(func(tx tm.Txn) error {
			tx.Store(addr, 3)
			tx.Store(addr+8, 4)
			return nil
		}); err != nil {
			t.Errorf("Atomic: %v", err)
		}
	})
	if machine.Mem.Load(addr) != 3 || machine.Mem.Load(addr+8) != 4 {
		t.Fatal("HTM commit not visible")
	}
	if machine.Stats.Commits() != 1 {
		t.Fatalf("commits = %d", machine.Stats.Commits())
	}
}

func TestSpeculationInvisibleUntilCommit(t *testing.T) {
	machine := testMachine(1)
	sys := NewHTM(machine)
	addr := machine.Mem.Alloc(64, 8)
	machine.Mem.Store(addr, 1)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		_ = th.Atomic(func(tx tm.Txn) error {
			tx.Store(addr, 2)
			// Speculative: memory still holds the old value.
			if machine.Mem.Load(addr) != 1 {
				t.Error("speculative store leaked to memory")
			}
			if tx.Load(addr) != 2 {
				t.Error("transaction does not see its own store")
			}
			return nil
		})
	})
	if machine.Mem.Load(addr) != 2 {
		t.Fatal("commit did not publish")
	}
}

func TestBodyErrorDiscardsBuffer(t *testing.T) {
	machine := testMachine(1)
	sys := NewHTM(machine)
	addr := machine.Mem.Alloc(64, 8)
	boom := errors.New("boom")
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		if err := th.Atomic(func(tx tm.Txn) error {
			tx.Store(addr, 9)
			return boom
		}); !errors.Is(err, boom) {
			t.Errorf("err = %v", err)
		}
	})
	if machine.Mem.Load(addr) != 0 {
		t.Fatal("aborted HTM transaction left state behind")
	}
}

func TestUserAbortDiscards(t *testing.T) {
	machine := testMachine(1)
	sys := NewHTM(machine)
	addr := machine.Mem.Alloc(64, 8)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		err := th.Atomic(func(tx tm.Txn) error {
			tx.Store(addr, 9)
			tx.Abort()
			return nil
		})
		if !errors.Is(err, tm.ErrUserAbort) {
			t.Errorf("err = %v", err)
		}
	})
	if machine.Mem.Load(addr) != 0 {
		t.Fatal("user abort leaked speculative state")
	}
}

func TestConflictingHTMTransactionsSerialize(t *testing.T) {
	machine := testMachine(2)
	sys := NewHTM(machine)
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
	if machine.Stats.Aborts(telemetry.AbortHTMConflict) == 0 {
		t.Fatal("expected HTM conflict aborts under contention")
	}
}

func TestCapacityAbort(t *testing.T) {
	// A transaction touching more lines than the L1 can hold must see
	// capacity aborts; with no fallback, pure HTM livelocks on it, so use
	// HyTM and verify it falls back to software and commits.
	cfg := sim.DefaultConfig(1)
	cfg.L1 = cache.Config{SizeBytes: 1 << 10, Assoc: 2} // 16 lines
	cfg.L2 = cache.Config{SizeBytes: 64 << 10, Assoc: 8}
	machine := sim.New(cfg)
	sys := NewHyTM(machine, tm.Config{Granularity: tm.LineGranularity}, 2)
	base := machine.Mem.Alloc(64*mem.LineSize, mem.LineSize)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		if err := th.Atomic(func(tx tm.Txn) error {
			for i := uint64(0); i < 64; i++ {
				tx.Store(base+i*mem.LineSize, i)
			}
			return nil
		}); err != nil {
			t.Errorf("Atomic: %v", err)
		}
	})
	if machine.Stats.Aborts(telemetry.AbortCapacity) == 0 {
		t.Fatal("expected capacity aborts for an L1-overflowing transaction")
	}
	if machine.Stats.Block(0).Count(telemetry.HTMFallbacks) == 0 {
		t.Fatal("HyTM did not fall back to software")
	}
	for i := uint64(0); i < 64; i++ {
		if machine.Mem.Load(base+i*mem.LineSize) != i {
			t.Fatalf("word %d lost", i)
		}
	}
}

func TestHyTMCoordinatesWithSoftware(t *testing.T) {
	// One core runs hardware transactions, the other runs the HyTM's own
	// software fallback path (forced via maxAttempts=0 on a second
	// thread? — instead: both run HyTM; contention forces some of each).
	machine := testMachine(2)
	sys := NewHyTM(machine, tm.Config{Granularity: tm.LineGranularity}, 1)
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
		t.Fatalf("counter = %d, want %d (hardware and software paths must be mutually atomic)", got, 2*per)
	}
}

func TestHyTMBarrierDetectsSoftwareOwner(t *testing.T) {
	// A software transaction owns a record while a hardware transaction
	// touches the same line: the Fig 14 barrier must abort the HW txn.
	machine := testMachine(2)
	sys := NewHyTM(machine, tm.Config{Granularity: tm.LineGranularity}, 1<<30)
	addr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	flag := machine.Mem.Alloc(mem.LineSize, mem.LineSize)

	swProg := func(c *sim.Ctx) {
		th := sys.Thread(c).(*Thread)
		// Use the software fallback directly by exhausting HW attempts:
		// simpler: run a software txn through the fallback system.
		sw := th.sw
		_ = sw.Atomic(func(tx tm.Txn) error {
			tx.Store(addr, 7) // acquires the record
			c.Store(flag, 1)
			for c.Load(flag) != 2 {
				c.Exec(1)
			}
			return nil
		})
	}
	hwProg := func(c *sim.Ctx) {
		th := sys.Thread(c)
		for c.Load(flag) != 1 {
			c.Exec(1)
		}
		done := false
		for !done {
			_ = th.Atomic(func(tx tm.Txn) error {
				if machine.Stats.Aborts(telemetry.AbortHTMConflict) > 0 && c.Load(flag) == 1 {
					c.Store(flag, 2) // let the SW txn finish
				}
				tx.Load(addr)
				done = true
				return nil
			})
		}
	}
	machine.Run(swProg, hwProg)
	if machine.Stats.Aborts(telemetry.AbortHTMConflict) == 0 {
		t.Fatal("hardware transaction never observed the software owner")
	}
	if machine.Mem.Load(addr) != 7 {
		t.Fatal("software transaction lost its write")
	}
}

func TestHyTMCommitBumpsVersions(t *testing.T) {
	machine := testMachine(1)
	sys := NewHyTM(machine, tm.Config{Granularity: tm.LineGranularity}, 4)
	addr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	rec := sys.table.RecordFor(addr)
	before := machine.Mem.Load(rec)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		_ = th.Atomic(func(tx tm.Txn) error {
			tx.Store(addr, 1)
			return nil
		})
	})
	after := machine.Mem.Load(rec)
	if after != before+2 {
		t.Fatalf("record version %d -> %d, want +2 (notify concurrent SW txns)", before, after)
	}
}

func TestPureHTMRejectsRetry(t *testing.T) {
	machine := testMachine(1)
	sys := NewHTM(machine)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		defer func() {
			if recover() == nil {
				t.Error("pure HTM must reject retry (restricted semantics)")
			}
		}()
		_ = th.Atomic(func(tx tm.Txn) error {
			tx.Retry()
			return nil
		})
	})
}

func TestHyTMRetryFallsBackToSoftware(t *testing.T) {
	machine := testMachine(2)
	sys := NewHyTM(machine, tm.Config{Granularity: tm.LineGranularity}, 4)
	flag := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	out := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	consumer := func(c *sim.Ctx) {
		th := sys.Thread(c)
		if err := th.Atomic(func(tx tm.Txn) error {
			v := tx.Load(flag)
			if v == 0 {
				tx.Retry()
			}
			tx.Store(out, v)
			return nil
		}); err != nil {
			t.Errorf("consumer: %v", err)
		}
	}
	producer := func(c *sim.Ctx) {
		th := sys.Thread(c)
		c.Exec(5000)
		_ = th.Atomic(func(tx tm.Txn) error {
			tx.Store(flag, 6)
			return nil
		})
	}
	machine.Run(consumer, producer)
	if machine.Mem.Load(out) != 6 {
		t.Fatalf("out = %d, want 6", machine.Mem.Load(out))
	}
	if machine.Stats.Block(0).Count(telemetry.HTMFallbacks) == 0 {
		t.Fatal("retry should have forced a software fallback")
	}
}

func TestNestingFlattened(t *testing.T) {
	machine := testMachine(1)
	sys := NewHTM(machine)
	addr := machine.Mem.Alloc(64, 8)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		if err := th.Atomic(func(tx tm.Txn) error {
			tx.Store(addr, 1)
			return tx.Atomic(func(in tm.Txn) error {
				in.Store(addr+8, 2)
				return nil
			})
		}); err != nil {
			t.Errorf("Atomic: %v", err)
		}
	})
	if machine.Mem.Load(addr) != 1 || machine.Mem.Load(addr+8) != 2 {
		t.Fatal("flattened nesting lost writes")
	}
}

// TestCommitPublishesAtomically: another core polling two words must never
// observe one updated without the other (the commit is one architectural
// step).
func TestCommitPublishesAtomically(t *testing.T) {
	machine := testMachine(2)
	sys := NewHTM(machine)
	a := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	b := machine.Mem.Alloc(4*mem.LineSize, mem.LineSize) // different lines
	done := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	writer := func(c *sim.Ctx) {
		th := sys.Thread(c)
		if err := th.Atomic(func(tx tm.Txn) error {
			tx.Store(a, 1)
			tx.Store(b, 1)
			tx.Store(b+2*mem.LineSize, 1)
			return nil
		}); err != nil {
			t.Errorf("writer: %v", err)
		}
		c.Store(done, 1)
	}
	torn := false
	reader := func(c *sim.Ctx) {
		for c.Load(done) != 1 {
			va := c.Load(a)
			vb := c.Load(b + 2*mem.LineSize)
			if va != vb {
				torn = true
			}
			// Space the polls out: with requester-wins conflict
			// resolution a tight polling loop would doom the writer's
			// transaction on every attempt.
			c.Exec(5000)
		}
	}
	machine.Run(writer, reader)
	if torn {
		t.Fatal("HTM commit was observed partially")
	}
}

// TestHyTMFallbackCounting: forcing repeated hardware aborts (capacity)
// must increment the fallback counter exactly once per software retry.
func TestHyTMFallbackCounting(t *testing.T) {
	cfg := sim.DefaultConfig(1)
	cfg.L1 = cache.Config{SizeBytes: 1 << 10, Assoc: 2}
	cfg.L2 = cache.Config{SizeBytes: 64 << 10, Assoc: 8}
	machine := sim.New(cfg)
	sys := NewHyTM(machine, tm.Config{Granularity: tm.LineGranularity}, 3)
	base := machine.Mem.Alloc(64*mem.LineSize, mem.LineSize)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		for n := 0; n < 4; n++ {
			if err := th.Atomic(func(tx tm.Txn) error {
				for i := uint64(0); i < 64; i++ {
					tx.Store(base+i*mem.LineSize, i)
				}
				return nil
			}); err != nil {
				t.Errorf("Atomic: %v", err)
			}
		}
	})
	st := machine.Stats.Block(0)
	if st.Count(telemetry.HTMFallbacks) != 4 {
		t.Fatalf("HTMFallbacks = %d, want 4 (one per oversized transaction)", st.Count(telemetry.HTMFallbacks))
	}
	if st.Count(telemetry.Commits) != 4 {
		t.Fatalf("commits = %d", st.Count(telemetry.Commits))
	}
	if st.Aborts(telemetry.AbortCapacity) < 4 {
		t.Fatalf("capacity aborts = %d, want >= 4", st.Aborts(telemetry.AbortCapacity))
	}
}

// TestSymmetricConflictNoLivelock: two HTM transactions writing each
// other's read sets in a tight loop must both eventually commit thanks to
// backoff (requester-wins alone would livelock).
func TestSymmetricConflictNoLivelock(t *testing.T) {
	machine := testMachine(2)
	sys := NewHTM(machine)
	a := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	b := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	mk := func(mine, theirs uint64) sim.Program {
		return func(c *sim.Ctx) {
			th := sys.Thread(c)
			for i := 0; i < 20; i++ {
				if err := th.Atomic(func(tx tm.Txn) error {
					v := tx.Load(theirs)
					tx.Store(mine, v+1)
					return nil
				}); err != nil {
					t.Errorf("Atomic: %v", err)
				}
			}
		}
	}
	machine.Run(mk(a, b), mk(b, a))
	if machine.Stats.Commits() != 40 {
		t.Fatalf("commits = %d, want 40", machine.Stats.Commits())
	}
}

// TestHTMAllocAndInit: transactional allocation works in hardware mode.
func TestHTMAllocAndInit(t *testing.T) {
	machine := testMachine(1)
	sys := NewHTM(machine)
	head := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		if err := th.Atomic(func(tx tm.Txn) error {
			n := tx.Alloc(16, 64)
			tx.StoreInit(n, 42)
			tx.Store(head, n)
			return nil
		}); err != nil {
			t.Errorf("Atomic: %v", err)
		}
	})
	n := machine.Mem.Load(head)
	if n == 0 || machine.Mem.Load(n) != 42 {
		t.Fatal("allocated node not published correctly")
	}
}
