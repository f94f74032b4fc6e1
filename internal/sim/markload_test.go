package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hastm.dev/hastm/internal/cache"
	"hastm.dev/hastm/internal/mem"
)

// defaultISAMarkLoad is a mark load under the default ISA spelled out as
// its parts: a read access and the load, a mark-counter bump for
// loadsetmark, and the access's charge plus the instruction's extra
// cycles. No mark bit is read or written.
func defaultISAMarkLoad(c *Ctx, op cache.MarkOp, plane int, addr uint64) (uint64, bool) {
	c.acquire()
	c.noteAccess(addr)
	res := c.m.Caches.Access(c.id, addr, false)
	v := c.m.Mem.Load(addr)
	extra := uint64(0)
	switch op {
	case cache.MarkSet:
		c.bumpMarkCounter(plane)
		extra = c.m.cfg.Lat.StoreQ
	case cache.MarkTest:
		extra = c.m.cfg.Lat.TestMarkBranch
	}
	c.charge(c.m.chargeAccess(res) + extra)
	c.release()
	return v, false
}

// TestDefaultISAMarkLoads runs one seeded program mix of mark loads, loads,
// stores and mark-counter reads on two default-ISA machines, with 1 and 2
// threads per core: one runs the Ctx mark loads, the other
// defaultISAMarkLoad. Every value, flag and clock each core sees, the final
// memory, the cache counters, the scheduler counters and each core's
// telemetry must agree.
func TestDefaultISAMarkLoads(t *testing.T) {
	type observed struct {
		v      uint64
		marked bool
		clock  uint64
	}
	run := func(tpc int, spelled bool) (logs [4][]observed, m *Machine, words uint64) {
		cfg := tinyConfig(4)
		cfg.DefaultISA, cfg.ThreadsPerCore, cfg.Prefetch, cfg.SpecRFOEvery = true, tpc, true, 7
		m = New(cfg)
		const lines = 24
		words = m.Mem.Alloc(lines*mem.LineSize, mem.LineSize)
		progs := make([]Program, 4)
		for id := range progs {
			progs[id] = func(c *Ctx) {
				r := rand.New(rand.NewSource(int64(id)))
				for i := 0; i < 400; i++ {
					addr := words + uint64(r.Intn(lines*mem.LineSize/mem.WordSize))*mem.WordSize
					op, plane := cache.MarkOp(r.Intn(3)), r.Intn(cache.NumMarkPlanes)
					var o observed
					switch k := r.Intn(8); {
					case k < 5 && spelled:
						o.v, o.marked = defaultISAMarkLoad(c, op, plane, addr)
					case k < 5 && op == cache.MarkSet:
						o.v = c.LoadSetMarkP(plane, addr, 16)
					case k < 5 && op == cache.MarkReset:
						o.v = c.LoadResetMarkP(plane, addr, 16)
					case k < 5:
						o.v, o.marked = c.LoadTestMarkP(plane, addr, 16)
					case k == 5:
						c.Store(addr, uint64(i))
					case k == 6:
						o.v = c.Load(addr)
					default:
						o.v = c.ReadMarkCounterP(plane)
					}
					o.clock = c.Clock()
					logs[id] = append(logs[id], o)
				}
			}
		}
		m.Run(progs...)
		return logs, m, words
	}
	for _, tpc := range []int{1, 2} {
		t.Run(fmt.Sprintf("tpc=%d", tpc), func(t *testing.T) {
			logsOne, one, words := run(tpc, false)
			logsTwo, two, _ := run(tpc, true)
			if !reflect.DeepEqual(logsOne, logsTwo) {
				t.Fatal("the cores' observed values, flags or clocks differ")
			}
			for a := words; a < words+24*mem.LineSize; a += mem.WordSize {
				if one.Mem.Load(a) != two.Mem.Load(a) {
					t.Fatalf("memory differs at %#x", a)
				}
			}
			counters := func(h *cache.Hierarchy) [9]uint64 {
				return [9]uint64{h.L1Hits, h.L1Misses, h.L2Hits, h.L2Misses, h.Invalidations,
					h.BackInvalidations, h.Evictions, h.MarkedDrops, h.PrefetchFills}
			}
			if got, want := counters(one.Caches), counters(two.Caches); got != want {
				t.Errorf("cache counters %v, spelled out %v", got, want)
			}
			if one.Sched() != two.Sched() {
				t.Errorf("scheduler counters %+v, spelled out %+v", one.Sched(), two.Sched())
			}
			for id := range one.cores {
				if *one.Core(id).Telem() != *two.Core(id).Telem() {
					t.Errorf("core %d's telemetry differs", id)
				}
			}
		})
	}
}

// A mark load that faults (here on a misaligned address) has made its
// cache access but changes no mark bit and, under the default ISA, no mark
// counter: the instruction does not retire.
func TestFaultingMarkLoadChangesNoMark(t *testing.T) {
	for _, defaultISA := range []bool{false, true} {
		cfg := tinyConfig(1)
		cfg.DefaultISA = defaultISA
		m := New(cfg)
		line := m.Mem.Alloc(mem.LineSize, mem.LineSize)
		faults := 0
		faulting := func(load func()) {
			defer func() {
				if recover() != nil {
					faults++
				}
			}()
			load()
		}
		m.Run(func(c *Ctx) {
			c.LoadSetMark(line, 16)
			faulting(func() { c.LoadResetMark(line+1, 16) })
			if _, marked := c.LoadTestMark(line, 16); marked == defaultISA {
				t.Errorf("DefaultISA=%v: a faulting loadresetmark cleared sub-block 0's mark", defaultISA)
			}
			faulting(func() { c.LoadSetMark(line+mem.LineSize/4+1, 16) })
			if _, marked := c.LoadTestMark(line+mem.LineSize/4, 16); marked {
				t.Errorf("DefaultISA=%v: a faulting loadsetmark marked sub-block 1", defaultISA)
			}
			if n := c.ReadMarkCounter(); defaultISA && n != 1 {
				t.Errorf("mark counter %d after one retired loadsetmark, want 1", n)
			}
		})
		if faults != 2 {
			t.Errorf("DefaultISA=%v: %d of 2 misaligned mark loads panicked", defaultISA, faults)
		}
	}
}
