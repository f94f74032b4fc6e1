package sim

import (
	"math/bits"
	"testing"

	"hastm.dev/hastm/internal/cache"
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/telemetry"
)

func tinyConfig(cores int) Config {
	cfg := DefaultConfig(cores)
	cfg.L1 = cache.Config{SizeBytes: 1 << 10, Assoc: 2}
	cfg.L2 = cache.Config{SizeBytes: 4 << 10, Assoc: 4}
	return cfg
}

func TestSingleCoreLoadStore(t *testing.T) {
	m := New(DefaultConfig(1))
	addr := m.Mem.Alloc(64, 8)
	var got uint64
	wall := m.Run(func(c *Ctx) {
		c.Store(addr, 42)
		got = c.Load(addr)
	})
	if got != 42 {
		t.Fatalf("load after store = %d", got)
	}
	lat := DefaultLatencies()
	// Store: cold miss; Load: L1 hit.
	want := lat.Mem + lat.L1Hit
	if wall != want {
		t.Fatalf("wall clock = %d, want %d", wall, want)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		m := New(tinyConfig(4))
		shared := m.Mem.Alloc(mem.LineSize, mem.LineSize)
		prog := func(c *Ctx) {
			for i := 0; i < 200; i++ {
				v := c.Load(shared)
				c.Exec(3)
				c.Store(shared, v+1)
			}
		}
		wall := m.Run(prog, prog, prog, prog)
		return wall, m.Mem.Load(shared)
	}
	w1, v1 := run()
	w2, v2 := run()
	if w1 != w2 || v1 != v2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", w1, v1, w2, v2)
	}
	if v1 != 800 {
		// The interleaving is serialised per-op, so increments interleave;
		// lost updates ARE possible (load/store are separate ops) — but
		// with deterministic scheduling the final value is fixed.
		t.Logf("final counter value %d (lost updates expected without CAS)", v1)
	}
}

func TestCASAtomicity(t *testing.T) {
	m := New(tinyConfig(4))
	ctr := m.Mem.Alloc(mem.LineSize, mem.LineSize)
	prog := func(c *Ctx) {
		for i := 0; i < 100; i++ {
			for {
				old := c.Load(ctr)
				if ok, _ := c.CAS(ctr, old, old+1); ok {
					break
				}
			}
		}
	}
	m.Run(prog, prog, prog, prog)
	if got := m.Mem.Load(ctr); got != 400 {
		t.Fatalf("CAS counter = %d, want 400", got)
	}
}

func TestSchedulerPicksMinClock(t *testing.T) {
	// Core 0 does one expensive op then records; core 1 does many cheap
	// ops. The interleaving must follow cycle order: core 1's ops at
	// clock < 200 must happen before core 0's second op.
	m := New(tinyConfig(2))
	a := m.Mem.Alloc(mem.LineSize, mem.LineSize)
	b := m.Mem.Alloc(mem.LineSize, mem.LineSize)
	var order []int
	p0 := func(c *Ctx) {
		c.Load(a) // 200 cycles cold
		c.Step(func(*Machine) uint64 { order = append(order, 0); return 1 })
	}
	p1 := func(c *Ctx) {
		c.Load(b) // also 200 cold
		for i := 0; i < 5; i++ {
			c.Exec(1)
			c.Step(func(*Machine) uint64 { order = append(order, 1); return 1 })
		}
	}
	m.Run(p0, p1)
	if len(order) != 6 {
		t.Fatalf("order len = %d", len(order))
	}
	if order[0] != 0 {
		t.Fatalf("tie at clock 200 must go to core 0 (lower id): %v", order)
	}
}

func TestMarkInstructionSemantics(t *testing.T) {
	m := New(tinyConfig(1))
	addr := m.Mem.Alloc(mem.LineSize, mem.LineSize)
	m.Mem.Store(addr, 7)
	m.Run(func(c *Ctx) {
		if v, marked := c.LoadTestMark(addr, 16); v != 7 || marked {
			t.Errorf("fresh loadtestmark: v=%d marked=%v", v, marked)
		}
		if v := c.LoadSetMark(addr, 16); v != 7 {
			t.Errorf("loadsetmark value = %d", v)
		}
		if _, marked := c.LoadTestMark(addr, 16); !marked {
			t.Error("mark bit not observed after loadsetmark")
		}
		if _, marked := c.LoadTestMark(addr, 64); marked {
			t.Error("64B test must AND all sub-blocks (only one set)")
		}
		c.LoadResetMark(addr, 16)
		if _, marked := c.LoadTestMark(addr, 16); marked {
			t.Error("mark survived loadresetmark")
		}
	})
}

func TestMarkCounterOnRemoteStore(t *testing.T) {
	m := New(tinyConfig(2))
	addr := m.Mem.Alloc(mem.LineSize, mem.LineSize)
	flag := m.Mem.Alloc(mem.LineSize, mem.LineSize)
	var after uint64
	p0 := func(c *Ctx) {
		c.ResetMarkCounter()
		c.LoadSetMark(addr, 16)
		// Signal core 1, then wait for its store.
		c.Store(flag, 1)
		for c.Load(flag) != 2 {
			c.Exec(1)
		}
		after = c.ReadMarkCounter()
	}
	p1 := func(c *Ctx) {
		for c.Load(flag) != 1 {
			c.Exec(1)
		}
		c.Store(addr, 99) // invalidates core 0's marked line
		c.Store(flag, 2)
	}
	m.Run(p0, p1)
	if after == 0 {
		t.Fatal("mark counter did not record the remote invalidation")
	}
}

func TestMarkCounterZeroWithoutInterference(t *testing.T) {
	m := New(tinyConfig(1))
	addr := m.Mem.Alloc(mem.LineSize, mem.LineSize)
	m.Run(func(c *Ctx) {
		c.ResetMarkCounter()
		c.LoadSetMark(addr, 16)
		c.LoadSetMark(addr+8, 16)
		if got := c.ReadMarkCounter(); got != 0 {
			t.Errorf("mark counter = %d, want 0", got)
		}
	})
}

func TestMarkCounterOnCapacityEviction(t *testing.T) {
	m := New(tinyConfig(1)) // 1KB L1, 2-way: 8 sets
	base := m.Mem.Alloc(64*mem.LineSize, mem.LineSize)
	m.Run(func(c *Ctx) {
		c.ResetMarkCounter()
		c.LoadSetMark(base, 16)
		// Walk enough lines in the same set to evict the marked one.
		setStride := uint64(8 * mem.LineSize)
		c.Load(base + setStride)
		c.Load(base + 2*setStride)
		if got := c.ReadMarkCounter(); got == 0 {
			t.Error("capacity eviction of a marked line must bump the counter")
		}
	})
}

func TestResetMarkAllIncrementsCounter(t *testing.T) {
	m := New(tinyConfig(1))
	addr := m.Mem.Alloc(mem.LineSize, mem.LineSize)
	m.Run(func(c *Ctx) {
		c.ResetMarkCounter()
		c.LoadSetMark(addr, 16)
		c.ResetMarkAll()
		if got := c.ReadMarkCounter(); got != 1 {
			t.Errorf("counter after resetmarkall = %d, want 1", got)
		}
		if _, marked := c.LoadTestMark(addr, 16); marked {
			t.Error("marks survived resetmarkall")
		}
	})
}

// TestDefaultISA checks the Section 3.3 degenerate implementation:
// functionally correct loads, no marking, loadsetmark bumps the counter.
func TestDefaultISA(t *testing.T) {
	cfg := tinyConfig(1)
	cfg.DefaultISA = true
	m := New(cfg)
	addr := m.Mem.Alloc(mem.LineSize, mem.LineSize)
	m.Mem.Store(addr, 5)
	m.Run(func(c *Ctx) {
		c.ResetMarkCounter()
		if v := c.LoadSetMark(addr, 16); v != 5 {
			t.Errorf("default loadsetmark value = %d", v)
		}
		if got := c.ReadMarkCounter(); got != 1 {
			t.Errorf("default loadsetmark must bump the counter, got %d", got)
		}
		if _, marked := c.LoadTestMark(addr, 16); marked {
			t.Error("default loadtestmark must clear the carry flag")
		}
		c.ResetMarkAll()
		if got := c.ReadMarkCounter(); got != 2 {
			t.Errorf("default resetmarkall must bump the counter, got %d", got)
		}
	})
}

func TestRingTransitionDiscardsMarks(t *testing.T) {
	m := New(tinyConfig(1))
	addr := m.Mem.Alloc(mem.LineSize, mem.LineSize)
	m.Run(func(c *Ctx) {
		c.ResetMarkCounter()
		c.LoadSetMark(addr, 16)
		c.RingTransition()
		if got := c.ReadMarkCounter(); got == 0 {
			t.Error("ring transition must bump the mark counter")
		}
		if _, marked := c.LoadTestMark(addr, 16); marked {
			t.Error("marks survived a ring transition")
		}
	})
}

func TestCategoryAttribution(t *testing.T) {
	m := New(tinyConfig(1))
	addr := m.Mem.Alloc(mem.LineSize, mem.LineSize)
	m.Run(func(c *Ctx) {
		c.Exec(10) // App by default
		prev := c.SetCat(telemetry.RdBar)
		c.Load(addr)
		c.SetCat(prev)
	})
	st := m.Stats.Block(0)
	if st.Cycles(telemetry.App) != 10 {
		t.Errorf("App cycles = %d, want 10", st.Cycles(telemetry.App))
	}
	if st.Cycles(telemetry.RdBar) != 200 {
		t.Errorf("RdBar cycles = %d, want 200 (cold miss)", st.Cycles(telemetry.RdBar))
	}
}

// The mark counter is 16 bits wide and saturates rather than wrapping.
func TestSaturatingMarkCounter(t *testing.T) {
	m := New(tinyConfig(1))
	m.Run(func(c *Ctx) {
		c.ResetMarkCounter()
		for i := 0; i < 1<<16+10; i++ {
			c.ResetMarkAll()
		}
		if got := c.ReadMarkCounter(); got != 1<<16-1 {
			t.Errorf("saturating counter = %d, want %d", got, 1<<16-1)
		}
	})
}

func TestRunTwicePanics(t *testing.T) {
	m := New(tinyConfig(1))
	m.Run(func(c *Ctx) { c.Exec(1) })
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	m.Run(func(c *Ctx) { c.Exec(1) })
}

func TestWallClockIsMaxCoreClock(t *testing.T) {
	m := New(tinyConfig(2))
	wall := m.Run(
		func(c *Ctx) { c.Exec(100) },
		func(c *Ctx) { c.Exec(5000) },
	)
	if wall != 5000 {
		t.Fatalf("wall = %d, want 5000", wall)
	}
}

// TestLeaseWorkIsLogarithmic holds the lease scheduler's host cost per
// lease to its run queue's bound as the machine grows: at most one sift
// step per heap level on the push and on the pop, 2·⌈log2 cores⌉. Each
// core loads its own line, so every access hits L1 and the counter sees
// only scheduling. Measured sift steps per lease: 0.99 at 4 cores, 2.98
// at 16, 4.98 at 64 and 6.97 at 256; a scan of every core would add about
// 256 per lease at 256 cores.
func TestLeaseWorkIsLogarithmic(t *testing.T) {
	for _, cores := range []int{4, 16, 64, 256} {
		cfg := DefaultConfig(cores)
		m := New(cfg)
		progs := make([]Program, cfg.Cores)
		for i := range progs {
			addr := m.Mem.AllocLines(1)
			progs[i] = func(c *Ctx) {
				for n := 0; n < 64; n++ {
					c.Load(addr)
				}
			}
		}
		m.Run(progs...)
		bound := uint64(2 * bits.Len(uint(cfg.Cores-1)))
		if leases := m.Sched().Leases; m.runq.work > bound*leases {
			t.Errorf("%d cores: %d sift steps over %d leases, want at most %d per lease",
				cores, m.runq.work, leases, bound)
		}
	}
}
