package locksync

import (
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

func TestLockMutualExclusion(t *testing.T) {
	machine := testMachine(4)
	sys := NewLock(machine)
	ctr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	const per = 50
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
		t.Fatalf("counter = %d, want %d (lock failed to serialise)", got, 4*per)
	}
	if machine.Stats.CategoryCycles(telemetry.Lock) == 0 {
		t.Fatal("lock cycles not attributed")
	}
	if n := machine.Stats.Count(telemetry.LockAcquires); n != 4*per {
		t.Fatalf("lock acquires = %d, want %d", n, 4*per)
	}
}

// A nested block flattens into the enclosing one under either baseline:
// both writes land and the pair counts one commit.
func TestLockNestingFlattens(t *testing.T) {
	for _, mk := range []func(*sim.Machine) *System{NewLock, NewSeq} {
		machine := testMachine(1)
		sys := mk(machine)
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
				t.Errorf("%s: Atomic: %v", sys.Name(), err)
			}
		})
		if machine.Mem.Load(addr) != 1 || machine.Mem.Load(addr+8) != 2 {
			t.Fatalf("%s: nested block lost writes", sys.Name())
		}
		if n := machine.Stats.Commits(); n != 1 {
			t.Errorf("%s: nested block counted %d commits, want 1", sys.Name(), n)
		}
	}
}

func TestLockRejectsRetry(t *testing.T) {
	machine := testMachine(1)
	sys := NewLock(machine)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		defer func() {
			if recover() == nil {
				t.Error("lock system must reject retry")
			}
		}()
		_ = th.Atomic(func(tx tm.Txn) error {
			tx.Retry()
			return nil
		})
	})
}

func TestLockAccessOutsideBlockPanics(t *testing.T) {
	for _, mk := range []func(*sim.Machine) *System{NewLock, NewSeq} {
		machine := testMachine(1)
		sys := mk(machine)
		addr := machine.Mem.Alloc(64, 8)
		machine.Run(func(c *sim.Ctx) {
			th := sys.Thread(c).(*thread)
			defer func() {
				if recover() == nil {
					t.Errorf("%s: access outside the atomic block must panic", sys.Name())
				}
			}()
			th.Load(addr)
		})
	}
}

func TestSeqBaseline(t *testing.T) {
	machine := testMachine(1)
	sys := NewSeq(machine)
	addr := machine.Mem.Alloc(64, 8)
	wall := machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		for i := 0; i < 10; i++ {
			if err := th.Atomic(func(tx tm.Txn) error {
				tx.Store(addr, tx.Load(addr)+1)
				return nil
			}); err != nil {
				t.Errorf("Atomic: %v", err)
			}
		}
	})
	if machine.Mem.Load(addr) != 10 {
		t.Fatal("sequential execution wrong")
	}
	if n := machine.Stats.Count(telemetry.LockAcquires); n != 0 {
		t.Errorf("sequential baseline counted %d lock acquires", n)
	}
	// Sequential = just the raw accesses: one cold miss + hits.
	if wall > 1000 {
		t.Fatalf("sequential baseline suspiciously slow: %d cycles", wall)
	}
}

func TestLockSlowerThanSeqButCorrectObjects(t *testing.T) {
	machine := testMachine(1)
	sys := NewLock(machine)
	obj := machine.Mem.Alloc(64, 16)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		_ = th.Atomic(func(tx tm.Txn) error {
			tx.StoreObj(obj, 8, 5)
			if tx.LoadObj(obj, 8) != 5 {
				t.Error("object access through lock baseline broken")
			}
			return nil
		})
	})
}

// orElse and an explicit abort need a transactional system too: a lock has
// nothing to roll back.
func TestLockRejectsOrElseAndAbort(t *testing.T) {
	for name, body := range map[string]func(tm.Txn) error{
		"orElse": func(tx tm.Txn) error { return tx.OrElse(func(tm.Txn) error { return nil }) },
		"abort":  func(tx tm.Txn) error { tx.Abort(); return nil },
	} {
		machine := testMachine(1)
		sys := NewLock(machine)
		machine.Run(func(c *sim.Ctx) {
			th := sys.Thread(c)
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), name+" requires a transactional system") {
					t.Errorf("%s: recovered %v", name, r)
				}
			}()
			_ = th.Atomic(body)
		})
	}
}
