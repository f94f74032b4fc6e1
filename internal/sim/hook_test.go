package sim_test

import (
	"testing"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
)

// periodicHook is a deterministic sim.FaultHook with two cadences, applied
// in this order at each grant. A core whose clock has moved at least period
// cycles past its last interrupt takes one: a ring transition, on which the
// hardware executes resetmarkall exactly as §5 prescribes (period 0: none).
// Then every n-th grant machine-wide suspends the granted core (n 0: none).
// OnGrant fires once per granted operation at the same point of the global
// operation order under both schedulers, so both cadences must agree too.
type periodicHook struct {
	period, n     uint64
	last          []uint64 // per core: the clock of its last interrupt
	grants, fired uint64   // fired counts the every-n-th suspensions
}

func newPeriodicHook(cores int, period, n uint64) *periodicHook {
	return &periodicHook{period: period, n: n, last: make([]uint64, cores)}
}

func (h *periodicHook) OnGrant(c *sim.Ctx) {
	if h.period > 0 && c.Clock()-h.last[c.ID()] >= h.period {
		h.last[c.ID()] = c.Clock()
		c.InjectSuspend()
	}
	h.grants++
	if h.n > 0 && h.grants%h.n == 0 {
		h.fired++
		c.InjectSuspend()
	}
}

func TestPeriodicInterrupts(t *testing.T) {
	m := sim.New(sim.DefaultConfig(1))
	m.SetFaultHook(newPeriodicHook(1, 1000, 0))
	addr := m.Mem.Alloc(mem.LineSize, mem.LineSize)
	var sawLoss bool
	m.Run(func(c *sim.Ctx) {
		for i := 0; i < 50; i++ {
			c.ResetMarkCounter()
			c.LoadSetMark(addr, 16)
			c.Exec(100)
			if c.ReadMarkCounter() != 0 {
				sawLoss = true
			}
		}
	})
	if !sawLoss {
		t.Fatal("periodic interrupts never discarded marks")
	}
}

// Every demand load feeds the recently-accessed ring a fault hook aims its
// evictions and snoops at, loadresetmark included.
func TestLoadResetMarkFeedsRecentLines(t *testing.T) {
	m := sim.New(sim.DefaultConfig(1))
	m.SetFaultHook(newPeriodicHook(1, 0, 0))
	addr := m.Mem.AllocLines(2) + mem.LineSize + 16
	m.Run(func(c *sim.Ctx) {
		c.LoadResetMarkP(0, addr, 16)
		if line, ok := c.RecentLine(0); !ok || line != mem.LineAddr(addr) {
			t.Errorf("RecentLine = %#x, %v after a loadresetmark of %#x; want %#x, true",
				line, ok, addr, mem.LineAddr(addr))
		}
	})
}
