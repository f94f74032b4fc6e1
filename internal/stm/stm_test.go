package stm

import (
	"errors"
	"fmt"
	"strings"
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

func lineCfg() tm.Config {
	return tm.Config{Granularity: tm.LineGranularity, ValidateEvery: 64}
}

func objCfg() tm.Config {
	return tm.Config{Granularity: tm.ObjectGranularity, ValidateEvery: 64}
}

func TestRecordHelpers(t *testing.T) {
	if !IsVersion(1) || !IsVersion(3) {
		t.Error("odd values must be versions")
	}
	if IsVersion(0x10040) {
		t.Error("even values must be owner pointers")
	}
	if NextVersion(1) != 3 {
		t.Error("NextVersion must increment by 2")
	}
}

func TestRecordTableMapping(t *testing.T) {
	m := mem.New()
	tab := NewRecordTable(m)
	if tab.Base()%mem.LineSize != 0 {
		t.Fatal("table base not line-aligned")
	}
	// Same cache line -> same record.
	if tab.RecordFor(0x10000) != tab.RecordFor(0x10038) {
		t.Error("addresses on one line must share a record")
	}
	// Adjacent lines -> adjacent (line-spaced) records.
	r0, r1 := tab.RecordFor(0x10000), tab.RecordFor(0x10040)
	if r1 != r0+mem.LineSize {
		t.Errorf("records not line-spaced: %#x then %#x", r0, r1)
	}
	// Bits above 17 wrap (table has 4096 entries).
	if tab.RecordFor(0x10000) != tab.RecordFor(0x10000+(1<<18)) {
		t.Error("bit 18 must not change the record index")
	}
	// Every record starts shared at the initial version.
	if v := m.Load(tab.RecordFor(0x10000)); v != VersionInit {
		t.Errorf("fresh record = %d, want %d", v, VersionInit)
	}
}

func TestCommitPublishes(t *testing.T) {
	machine := testMachine(1)
	s := New(machine, lineCfg())
	addr := machine.Mem.Alloc(64, 8)
	machine.Run(func(c *sim.Ctx) {
		th := s.Thread(c)
		err := th.Atomic(func(tx tm.Txn) error {
			tx.Store(addr, 11)
			tx.Store(addr+8, 22)
			return nil
		})
		if err != nil {
			t.Errorf("Atomic: %v", err)
		}
	})
	if machine.Mem.Load(addr) != 11 || machine.Mem.Load(addr+8) != 22 {
		t.Fatal("committed values not visible")
	}
	if machine.Stats.Commits() != 1 {
		t.Fatalf("commits = %d", machine.Stats.Commits())
	}
	// Records written by the transaction must be back in the shared state.
	rec := s.Table().RecordFor(addr)
	if v := machine.Mem.Load(rec); !IsVersion(v) || v == VersionInit {
		t.Fatalf("record after commit = %#x, want an incremented version", v)
	}
}

func TestReadIsolationUnderConflict(t *testing.T) {
	// Two cores increment a shared counter transactionally; the final
	// value must equal the total number of increments (atomicity), and
	// at least one conflict abort should have occurred given the tight
	// interleaving.
	machine := testMachine(2)
	s := New(machine, lineCfg())
	ctr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	const per = 50
	prog := func(c *sim.Ctx) {
		th := s.Thread(c)
		for i := 0; i < per; i++ {
			err := th.Atomic(func(tx tm.Txn) error {
				v := tx.Load(ctr)
				tx.Store(ctr, v+1)
				return nil
			})
			if err != nil {
				t.Errorf("Atomic: %v", err)
			}
		}
	}
	machine.Run(prog, prog)
	if got := machine.Mem.Load(ctr); got != 2*per {
		t.Fatalf("counter = %d, want %d", got, 2*per)
	}
}

func TestConflictingWritersSerialize(t *testing.T) {
	// Writers move value between two words keeping an invariant sum.
	machine := testMachine(4)
	s := New(machine, lineCfg())
	a := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	b := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	machine.Mem.Store(a, 1000)
	prog := func(c *sim.Ctx) {
		th := s.Thread(c)
		for i := 0; i < 30; i++ {
			_ = th.Atomic(func(tx tm.Txn) error {
				va := tx.Load(a)
				vb := tx.Load(b)
				if va == 0 {
					return nil
				}
				tx.Store(a, va-1)
				tx.Store(b, vb+1)
				return nil
			})
		}
	}
	machine.Run(prog, prog, prog, prog)
	sum := machine.Mem.Load(a) + machine.Mem.Load(b)
	if sum != 1000 {
		t.Fatalf("invariant violated: sum = %d", sum)
	}
}

func TestObjectGranularity(t *testing.T) {
	machine := testMachine(1)
	s := New(machine, objCfg())
	obj := AllocObject(machine.Mem, 16) // two fields
	machine.Run(func(c *sim.Ctx) {
		th := s.Thread(c)
		err := th.Atomic(func(tx tm.Txn) error {
			tx.StoreObj(obj, 8, 7)
			tx.StoreObj(obj, 16, 8)
			if tx.LoadObj(obj, 8) != 7 {
				t.Error("read-after-write within txn failed")
			}
			return nil
		})
		if err != nil {
			t.Errorf("Atomic: %v", err)
		}
	})
	if machine.Mem.Load(obj+8) != 7 || machine.Mem.Load(obj+16) != 8 {
		t.Fatal("object fields not committed")
	}
	if v := machine.Mem.Load(obj); !IsVersion(v) {
		t.Fatalf("header record left owned: %#x", v)
	}
}

// FilterWrites at object granularity lost an undo entry: the record barrier
// marks the object header's 16-byte sub-block on the write plane, so the
// store to the field at offset 8 found its sub-block "logged", and an aborted
// body left 99 where 5 was. NewHASTM refuses the combination by name; were
// the system built, the body below would show whether the undo holds.
func TestFilterWritesRefusesObjectGranularity(t *testing.T) {
	machine := testMachine(1)
	obj := AllocObject(machine.Mem, 8)
	machine.Mem.Store(obj+8, 5)
	var s *System
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "FilterWrites needs line granularity") {
				t.Errorf("NewHASTM recovered %v, want the FilterWrites granularity panic", r)
			}
		}()
		s = NewHASTM("hastm-wfilter", machine, HASTMConfig{TM: objCfg(), Filter: true, FilterWrites: true})
	}()
	if s == nil {
		return
	}
	failed := errors.New("abort")
	machine.Run(func(c *sim.Ctx) {
		if err := s.Thread(c).Atomic(func(tx tm.Txn) error { tx.StoreObj(obj, 8, 99); return failed }); err != failed {
			t.Errorf("Atomic: %v, want the body's error", err)
		}
	})
	if v := machine.Mem.Load(obj + 8); v != 5 {
		t.Errorf("an aborted body left %d in the field, want 5", v)
	}
}

func TestObjectHeaderOffsetPanics(t *testing.T) {
	machine := testMachine(1)
	s := New(machine, objCfg())
	obj := AllocObject(machine.Mem, 16)
	machine.Run(func(c *sim.Ctx) {
		th := s.Thread(c)
		defer func() {
			if recover() == nil {
				t.Error("offset 0 must panic: it overlaps the record")
			}
		}()
		_ = th.Atomic(func(tx tm.Txn) error {
			tx.LoadObj(obj, 0)
			return nil
		})
	})
}

func TestWriteAfterReadUpgrade(t *testing.T) {
	// Reading then writing the same record must commit cleanly: the
	// validation path has to accept self-owned records acquired at the
	// version that was read.
	machine := testMachine(1)
	s := New(machine, lineCfg())
	addr := machine.Mem.Alloc(64, 8)
	machine.Run(func(c *sim.Ctx) {
		th := s.Thread(c)
		err := th.Atomic(func(tx tm.Txn) error {
			v := tx.Load(addr)
			tx.Store(addr, v+1)
			_ = tx.Load(addr) // read again after owning
			return nil
		})
		if err != nil {
			t.Errorf("Atomic: %v", err)
		}
	})
	if machine.Mem.Load(addr) != 1 {
		t.Fatal("upgrade transaction lost its write")
	}
	if machine.Stats.TotalAborts() != 0 {
		t.Fatalf("unexpected aborts: %d", machine.Stats.TotalAborts())
	}
}

func TestGCPauseDoesNotAbort(t *testing.T) {
	machine := testMachine(1)
	s := New(machine, lineCfg())
	addr := machine.Mem.Alloc(64, 8)
	var reads, writes, undos int
	machine.Run(func(c *sim.Ctx) {
		th := s.Thread(c).(*Thread)
		err := th.Atomic(func(tx tm.Txn) error {
			tx.Load(addr)
			tx.Store(addr, 3)
			th.GCPause(func(r, w []RecEntry, u []UndoEntry) {
				reads, writes, undos = len(r), len(w), len(u)
			})
			tx.Store(addr+8, 4)
			return nil
		})
		if err != nil {
			t.Errorf("Atomic across GC pause: %v", err)
		}
	})
	if reads == 0 || writes == 0 || undos == 0 {
		t.Fatalf("log introspection empty: r=%d w=%d u=%d", reads, writes, undos)
	}
	if machine.Mem.Load(addr) != 3 || machine.Mem.Load(addr+8) != 4 {
		t.Fatal("transaction interrupted by GC pause lost writes")
	}
	if machine.Stats.TotalAborts() != 0 {
		t.Fatal("GC pause must not abort the transaction")
	}
}

// TestContentionPolicies: two cores incrementing one counter keep meeting
// each other's ownership. The bounded wait (Base.WaitShared) has two
// outcomes, and each case drives one of them: an owner that lets go within
// the 16 backoff rounds is waited out ("wait"), one that holds the record
// longer makes the waiter abort itself ("abort-self"); "polite" is the
// unforced mix. Retry must lose no update in any of them.
func TestContentionPolicies(t *testing.T) {
	for _, c := range []struct {
		name string
		hold uint64 // cycles the owner keeps the counter's record
	}{
		{"polite", 0},
		{"wait", 200},
		{"abort-self", 1 << 19},
	} {
		t.Run(c.name, func(t *testing.T) {
			machine := testMachine(2)
			s := New(machine, lineCfg())
			ctr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
			prog := func(ctx *sim.Ctx) {
				th := s.Thread(ctx)
				for i := 0; i < 25; i++ {
					if err := th.Atomic(func(tx tm.Txn) error {
						tx.Store(ctr, tx.Load(ctr)+1)
						if c.hold > 0 {
							tx.Exec(c.hold)
						}
						return nil
					}); err != nil {
						t.Errorf("Atomic: %v", err)
					}
				}
			}
			machine.Run(prog, prog)
			if got := machine.Mem.Load(ctr); got != 50 {
				t.Fatalf("counter = %d, want 50", got)
			}
			switch lock := machine.Stats.Aborts(telemetry.AbortLockConflict); {
			case c.name == "wait" && lock != 0:
				t.Fatalf("%d lock-conflict aborts, want the short owner waited out", lock)
			case c.name == "abort-self" && lock == 0:
				t.Fatal("no lock-conflict abort, want the waiter to give up on the long owner")
			}
		})
	}
}

func TestPeriodicValidationAborts(t *testing.T) {
	// A transaction whose read set is invalidated mid-flight must be
	// aborted by periodic validation rather than running to commit.
	machine := testMachine(2)
	cfg := lineCfg()
	cfg.ValidateEvery = 4
	s := New(machine, cfg)
	data := machine.Mem.Alloc(16*mem.LineSize, mem.LineSize)
	sync := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	reader := func(c *sim.Ctx) {
		th := s.Thread(c)
		signaled := false
		_ = th.Atomic(func(tx tm.Txn) error {
			tx.Load(data)
			if !signaled {
				signaled = true
				c.Store(sync, 1) // non-transactional signal, first attempt only
				for c.Load(sync) != 2 {
					c.Exec(1)
				}
			}
			// Keep reading: periodic validation must fire and abort the
			// first attempt.
			for i := uint64(1); i < 16; i++ {
				tx.Load(data + i*mem.LineSize)
			}
			return nil
		})
	}
	writer := func(c *sim.Ctx) {
		th := s.Thread(c)
		for c.Load(sync) != 1 {
			c.Exec(1)
		}
		_ = th.Atomic(func(tx tm.Txn) error {
			tx.Store(data, 77)
			return nil
		})
		c.Store(sync, 2)
	}
	machine.Run(reader, writer)
	if machine.Stats.Aborts(telemetry.AbortValidation)+machine.Stats.Aborts(telemetry.AbortLockConflict) == 0 {
		t.Fatal("expected at least one conflict abort from periodic validation")
	}
	if machine.Stats.Commits() < 2 {
		t.Fatalf("both transactions should eventually commit, got %d", machine.Stats.Commits())
	}
}

func TestStatsBreakdownHasBarrierCosts(t *testing.T) {
	machine := testMachine(1)
	s := New(machine, lineCfg())
	data := machine.Mem.Alloc(64*mem.LineSize, mem.LineSize)
	machine.Run(func(c *sim.Ctx) {
		th := s.Thread(c)
		_ = th.Atomic(func(tx tm.Txn) error {
			for i := uint64(0); i < 64; i++ {
				tx.Load(data + i*mem.LineSize)
			}
			tx.Store(data, 1)
			return nil
		})
	})
	st := machine.Stats
	for _, cat := range []telemetry.Category{telemetry.RdBar, telemetry.WrBar, telemetry.Validate, telemetry.Commit, telemetry.TLS, telemetry.App} {
		if st.CategoryCycles(cat) == 0 {
			t.Errorf("category %v has zero cycles", cat)
		}
	}
}

func TestModePolicyStringUnknown(t *testing.T) {
	if got := ModePolicy(9).String(); got != "mode?" {
		t.Errorf("ModePolicy(9).String() = %q", got)
	}
}
