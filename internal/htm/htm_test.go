package htm

import (
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
	// Both cores run HyTM with one hardware attempt per transaction, so
	// contention sends some transactions to the software path while the
	// rest commit in hardware.
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
	if fb := machine.Stats.Count(telemetry.HTMFallbacks); fb == 0 || fb == 2*per {
		t.Fatalf("%d of %d transactions fell back: the run must mix both paths", fb, 2*per)
	}
}

// TestHyTMBarrierDetectsSoftwareOwner is the HyTM instrumentation invariant
// ("Inherent Limitations of Hybrid TM"): every hardware access that can race
// a software writer reads that location's transaction record. A software
// transaction owns the record of addr while a hardware transaction loads or
// stores addr; each barrier's Fig 14 prologue must abort the hardware
// attempt until the software transaction commits.
func TestHyTMBarrierDetectsSoftwareOwner(t *testing.T) {
	for _, row := range []struct {
		name   string
		access func(tx tm.Txn, addr uint64)
		want   uint64 // addr after both commit
	}{
		{"Load", func(tx tm.Txn, addr uint64) { tx.Load(addr) }, 7},
		{"Store", func(tx tm.Txn, addr uint64) { tx.Store(addr, 9) }, 9},
	} {
		t.Run(row.name, func(t *testing.T) {
			machine := testMachine(2)
			sys := NewHyTM(machine, tm.Config{Granularity: tm.LineGranularity}, 1<<30)
			addr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
			flag := machine.Mem.Alloc(mem.LineSize, mem.LineSize)

			swProg := func(c *sim.Ctx) {
				_ = sys.Thread(c).(*Thread).sw.Atomic(func(tx tm.Txn) error {
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
				_ = th.Atomic(func(tx tm.Txn) error {
					if machine.Stats.Aborts(telemetry.AbortHTMConflict) > 0 {
						c.Store(flag, 2) // owner seen: let the software transaction commit
					}
					row.access(tx, addr)
					return nil
				})
				c.Store(flag, 2) // a barrier that missed the owner must not hang the run
			}
			machine.Run(swProg, hwProg)
			if machine.Stats.Aborts(telemetry.AbortHTMConflict) == 0 {
				t.Fatal("hardware transaction never observed the software owner")
			}
			if got := machine.Mem.Load(addr); got != row.want {
				t.Fatalf("addr = %d, want %d: the hardware access was not ordered after the software commit", got, row.want)
			}
		})
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
// must increment the fallback counter exactly once per software retry, and
// the first oversized transaction's trace must read: three hardware
// attempts, the attempts-exhausted fallback, then the software attempt.
func TestHyTMFallbackCounting(t *testing.T) {
	cfg := sim.DefaultConfig(1)
	cfg.L1 = cache.Config{SizeBytes: 1 << 10, Assoc: 2}
	cfg.L2 = cache.Config{SizeBytes: 64 << 10, Assoc: 8}
	machine := sim.New(cfg)
	machine.SetTxnTrace(telemetry.NewTraceBuffer(0))
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

	type step struct {
		kind  string
		retry int
		cause string
	}
	capacity := telemetry.AbortCapacity.String()
	want := []step{
		{telemetry.EvBegin, 0, ""}, {telemetry.EvAbort, 0, capacity},
		{telemetry.EvBegin, 1, ""}, {telemetry.EvAbort, 1, capacity},
		{telemetry.EvBegin, 2, ""}, {telemetry.EvAbort, 2, capacity},
		{telemetry.EvFallback, 3, "attempts-exhausted"},
		{telemetry.EvBegin, 0, ""}, {telemetry.EvValidate, 0, "full"}, {telemetry.EvCommit, 0, ""},
	}
	evs := machine.TxnTrace().Events()
	if len(evs) < len(want) {
		t.Fatalf("trace has %d events, want at least %d", len(evs), len(want))
	}
	for i, w := range want {
		if got := (step{evs[i].Kind, evs[i].Retry, evs[i].Cause}); got != w {
			t.Fatalf("event %d = %v, want %v", i, got, w)
		}
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

// TestCommittedTxnAllocatesNothing: a committed hardware transaction —
// engine loop, HyTM wrapper and barriers — allocates nothing once the
// thread's state has grown.
func TestCommittedTxnAllocatesNothing(t *testing.T) {
	for _, name := range []string{"htm", "hytm"} {
		machine := testMachine(1)
		sys := NewHTM(machine)
		if name == "hytm" {
			sys = NewHyTM(machine, tm.Config{Granularity: tm.LineGranularity}, 4)
		}
		words := machine.Mem.Alloc(4*mem.LineSize, mem.LineSize)
		machine.Run(func(c *sim.Ctx) {
			th := sys.Thread(c)
			body := func(tx tm.Txn) error {
				for i := uint64(0); i < 4; i++ {
					tx.Store(words+i*mem.LineSize, tx.Load(words+i*mem.LineSize)+1)
				}
				return nil
			}
			run := func() {
				if err := th.Atomic(body); err != nil {
					t.Fatal(err)
				}
			}
			run() // grow the sets
			if n := testing.AllocsPerRun(100, run); n != 0 {
				t.Errorf("%s: %v allocs per committed transaction, want 0", name, n)
			}
		})
	}
}

// HyTM's attempt bound defaults to 4 hardware attempts, and a pure HTM
// thread, which has no software half to escalate on, runs a serialized
// request as a plain hardware transaction.
func TestHyTMDefaultsAndSerializedHTM(t *testing.T) {
	if got := NewHyTM(testMachine(1), tm.Config{}, 0).maxAttempts; got != 4 {
		t.Errorf("NewHyTM(..., 0) allows %d hardware attempts, want 4", got)
	}
	machine := testMachine(1)
	sys := NewHTM(machine)
	addr := machine.Mem.Alloc(64, 8)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c).(*Thread)
		if err := th.AtomicSerialized(func(tx tm.Txn) error { tx.Store(addr, 7); return nil }); err != nil {
			t.Errorf("AtomicSerialized: %v", err)
		}
	})
	if got := machine.Mem.Load(addr); got != 7 {
		t.Errorf("word = %d, want 7", got)
	}
}
