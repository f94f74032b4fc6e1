package sim

import (
	"testing"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/telemetry"
)

// Tests for the multi-filter extension (§3.1: "one could support multiple
// filters concurrently with independent mark bits") and the speculation
// noise source.

func TestMarkPlanesAreIndependent(t *testing.T) {
	m := New(tinyConfig(1))
	addr := m.Mem.Alloc(mem.LineSize, mem.LineSize)
	m.Run(func(c *Ctx) {
		c.LoadSetMarkP(0, addr, 16)
		if _, marked := c.LoadTestMarkP(1, addr, 16); marked {
			t.Error("plane 1 sees plane 0's mark")
		}
		c.LoadSetMarkP(1, addr, 16)
		if _, marked := c.LoadTestMarkP(0, addr, 16); !marked {
			t.Error("plane 0 mark lost when plane 1 was set")
		}
		c.LoadResetMarkP(0, addr, 16)
		if _, marked := c.LoadTestMarkP(1, addr, 16); !marked {
			t.Error("clearing plane 0 must not clear plane 1")
		}
	})
}

func TestPerPlaneCounters(t *testing.T) {
	m := New(tinyConfig(1))
	addr := m.Mem.Alloc(mem.LineSize, mem.LineSize)
	m.Run(func(c *Ctx) {
		c.ResetMarkCounterP(0)
		c.ResetMarkCounterP(1)
		c.LoadSetMarkP(1, addr, 16)
		c.ResetMarkAllP(1) // bumps only plane 1
		if got := c.ReadMarkCounterP(0); got != 0 {
			t.Errorf("plane-0 counter = %d, want 0", got)
		}
		if got := c.ReadMarkCounterP(1); got != 1 {
			t.Errorf("plane-1 counter = %d, want 1", got)
		}
	})
}

func TestBothPlaneCountersBumpOnInvalidation(t *testing.T) {
	m := New(tinyConfig(2))
	addr := m.Mem.Alloc(mem.LineSize, mem.LineSize)
	flag := m.Mem.Alloc(mem.LineSize, mem.LineSize)
	var c0, c1 uint64
	p0 := func(c *Ctx) {
		c.ResetMarkCounterP(0)
		c.ResetMarkCounterP(1)
		c.LoadSetMarkP(0, addr, 16)
		c.LoadSetMarkP(1, addr, 16)
		c.Store(flag, 1)
		for c.Load(flag) != 2 {
			c.Exec(1)
		}
		c0 = c.ReadMarkCounterP(0)
		c1 = c.ReadMarkCounterP(1)
	}
	p1 := func(c *Ctx) {
		for c.Load(flag) != 1 {
			c.Exec(1)
		}
		c.Store(addr, 1)
		c.Store(flag, 2)
	}
	m.Run(p0, p1)
	if c0 == 0 || c1 == 0 {
		t.Fatalf("invalidation must bump every plane with marks set: p0=%d p1=%d", c0, c1)
	}
}

func TestRingTransitionClearsAllPlanes(t *testing.T) {
	m := New(tinyConfig(1))
	addr := m.Mem.Alloc(mem.LineSize, mem.LineSize)
	m.Run(func(c *Ctx) {
		c.LoadSetMarkP(0, addr, 16)
		c.LoadSetMarkP(1, addr, 16)
		c.RingTransition()
		if _, marked := c.LoadTestMarkP(0, addr, 16); marked {
			t.Error("plane 0 survived the ring transition")
		}
		if _, marked := c.LoadTestMarkP(1, addr, 16); marked {
			t.Error("plane 1 survived the ring transition")
		}
	})
}

func TestSpecRFODisturbsOtherCoresOnly(t *testing.T) {
	cfg := tinyConfig(2)
	cfg.SpecRFOEvery = 4
	m := New(cfg)
	shared := m.Mem.Alloc(8*mem.LineSize, mem.LineSize)
	flag := m.Mem.Alloc(mem.LineSize, mem.LineSize)
	var ownLoss, victimLoss uint64
	p0 := func(c *Ctx) {
		c.ResetMarkCounter()
		// Mark a working set, then keep accessing it: own RFOs must never
		// kill own marks.
		for i := uint64(0); i < 8; i++ {
			c.LoadSetMark(shared+i*mem.LineSize, 64)
		}
		for n := 0; n < 100; n++ {
			c.Load(shared + uint64(n%8)*mem.LineSize)
		}
		ownLoss = c.ReadMarkCounter()
		c.Store(flag, 1)
	}
	m.Run(p0, nil)
	if ownLoss != 0 {
		t.Fatalf("a core's own speculation noise must not unmark its lines: counter=%d", ownLoss)
	}

	// Now with a second active core hammering the same lines, the victim
	// must lose marks.
	m2 := New(cfg)
	shared2 := m2.Mem.Alloc(8*mem.LineSize, mem.LineSize)
	flag2 := m2.Mem.Alloc(mem.LineSize, mem.LineSize)
	q0 := func(c *Ctx) {
		c.ResetMarkCounter()
		for i := uint64(0); i < 8; i++ {
			c.LoadSetMark(shared2+i*mem.LineSize, 64)
		}
		c.Store(flag2, 1)
		for c.Load(flag2) != 2 {
			c.Exec(1)
		}
		victimLoss = c.ReadMarkCounter()
	}
	q1 := func(c *Ctx) {
		for c.Load(flag2) != 1 {
			c.Exec(1)
		}
		for n := 0; n < 200; n++ {
			c.Load(shared2 + uint64(n%8)*mem.LineSize) // triggers RFO noise
		}
		c.Store(flag2, 2)
	}
	m2.Run(q0, q1)
	if victimLoss == 0 {
		t.Fatal("cross-core speculation noise never unmarked the victim's lines")
	}
}

func TestStepExclusiveAccess(t *testing.T) {
	m := New(tinyConfig(2))
	var order []int
	prog := func(id int) Program {
		return func(c *Ctx) {
			for i := 0; i < 10; i++ {
				c.Step(func(mm *Machine) uint64 {
					order = append(order, id)
					return 5
				})
			}
		}
	}
	m.Run(prog(0), prog(1))
	if len(order) != 20 {
		t.Fatalf("order length %d", len(order))
	}
	// With equal 5-cycle steps, the scheduler must interleave the cores
	// deterministically (tie goes to core 0).
	for i := 0; i < 20; i += 2 {
		if order[i] != 0 || order[i+1] != 1 {
			t.Fatalf("unexpected interleaving at %d: %v", i, order)
		}
	}
}

func TestTraceBufferCollectsAndSorts(t *testing.T) {
	m := New(tinyConfig(2))
	tb := telemetry.NewTraceBuffer(100)
	m.SetTxnTrace(tb)
	addr := m.Mem.Alloc(mem.LineSize, mem.LineSize)
	prog := func(c *Ctx) {
		for i := 0; i < 3; i++ {
			c.Load(addr)
			c.EmitTxn(telemetry.TxnEvent{Kind: "tick"})
		}
	}
	m.Run(prog, prog)
	evs := tb.Events()
	if len(evs) != 6 {
		t.Fatalf("events = %d, want 6", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i-1].Cycle > evs[i].Cycle {
			t.Fatalf("events not cycle-sorted: %+v", evs)
		}
	}
}

func TestTraceDisabledIsFree(t *testing.T) {
	m := New(tinyConfig(1))
	wall := m.Run(func(c *Ctx) {
		c.EmitTxn(telemetry.TxnEvent{Kind: "ignored", Cause: "no buffer attached"})
		c.Exec(5)
	})
	if wall != 5 {
		t.Fatalf("tracing must be free: wall=%d", wall)
	}
}
