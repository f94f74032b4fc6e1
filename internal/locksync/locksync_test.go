package locksync

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
}

func TestLockNestingFlattens(t *testing.T) {
	machine := testMachine(1)
	sys := NewLock(machine)
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
		t.Fatal("nested lock block lost writes")
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
	machine := testMachine(1)
	sys := NewLock(machine)
	addr := machine.Mem.Alloc(64, 8)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c).(*lockThread)
		defer func() {
			if recover() == nil {
				t.Error("access outside the lock must panic")
			}
		}()
		th.Load(addr)
	})
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
