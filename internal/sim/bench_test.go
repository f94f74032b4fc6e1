package sim_test

import (
	"fmt"
	"testing"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
)

// The scheduler benchmarks measure the host cost of one architectural
// operation round-trip — grant, cache access, charge, hand-back — which is
// the simulator's innermost loop. A machine can only Run once, so each
// measured region builds one machine and amortises its setup over b.N
// operations; allocs/op therefore includes a vanishing machine-sized
// constant and is dominated by the steady-state path (which must be
// allocation-free).
//
// 1-core runs exercise the lease fast path at its best (horizon = +inf,
// zero handoffs after the first grant); 4-core runs interleave cores in
// cycle order and measure the mixed grant/hand-back regime. Exec is
// core-private and takes no grant, so Exec/4core costs what Exec/1core
// does; ExecLoad alternates Exec(2) with a private-line Load — the shape of
// a barrier's instruction sequence, one op = the pair — where an Exec that
// took a grant would double the handoffs. StoreRun is a log append, one op
// = a Load, three Stores and an Exec: a core that loses its lease at the
// Load posts the rest and retires them at its next Load.

// benchOps runs one op-kind benchmark at the given core count. Each core
// executes its share of b.N ops against a private cache-resident line.
func benchOps(b *testing.B, cores int, op func(c *sim.Ctx, addr uint64)) {
	b.ReportAllocs()
	m := sim.New(sim.DefaultConfig(cores))
	addrs := make([]uint64, cores)
	for i := range addrs {
		addrs[i] = m.Mem.AllocLines(1)
	}
	per := b.N / cores
	if per == 0 {
		per = 1
	}
	progs := make([]sim.Program, cores)
	for i := range progs {
		addr := addrs[i]
		progs[i] = func(c *sim.Ctx) {
			for n := 0; n < per; n++ {
				op(c, addr)
			}
		}
	}
	b.ResetTimer()
	m.Run(progs...)
}

func BenchmarkSimOps(b *testing.B) {
	kinds := []struct {
		name string
		op   func(c *sim.Ctx, addr uint64)
	}{
		{"Load", func(c *sim.Ctx, addr uint64) { c.Load(addr) }},
		{"Store", func(c *sim.Ctx, addr uint64) { c.Store(addr, 1) }},
		{"CAS", func(c *sim.Ctx, addr uint64) { c.CAS(addr, 0, 0) }},
		{"Exec", func(c *sim.Ctx, addr uint64) { c.Exec(1) }},
		{"ExecLoad", func(c *sim.Ctx, addr uint64) { c.Exec(2); c.Load(addr) }},
		{"StoreRun", func(c *sim.Ctx, addr uint64) {
			c.Load(addr)
			c.Store(addr+8, 1)
			c.Store(addr+16, 2)
			c.Store(addr+24, 3)
			c.Exec(2)
		}},
	}
	for _, k := range kinds {
		for _, cores := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/%dcore", k.name, cores), func(b *testing.B) {
				benchOps(b, cores, k.op)
			})
		}
	}
}

// BenchmarkSimOpsReference pins the reference per-op handoff scheduler's
// cost so the lease's win stays visible in the bench record. Load-only:
// the scheduler overhead is identical for every op kind.
func BenchmarkSimOpsReference(b *testing.B) {
	for _, cores := range []int{1, 4} {
		b.Run(fmt.Sprintf("Load/%dcore", cores), func(b *testing.B) {
			b.ReportAllocs()
			cfg := sim.DefaultConfig(cores)
			cfg.ReferenceScheduler = true
			m := sim.New(cfg)
			addrs := make([]uint64, cores)
			for i := range addrs {
				addrs[i] = m.Mem.AllocLines(1)
			}
			per := b.N / cores
			if per == 0 {
				per = 1
			}
			progs := make([]sim.Program, cores)
			for i := range progs {
				addr := addrs[i]
				progs[i] = func(c *sim.Ctx) {
					for n := 0; n < per; n++ {
						c.Load(addr)
					}
				}
			}
			b.ResetTimer()
			m.Run(progs...)
		})
	}
}

// BenchmarkMemAccess measures the paged backing store alone (no simulated
// machine): the two-array-index Load/Store fast path.
func BenchmarkMemAccess(b *testing.B) {
	b.ReportAllocs()
	m := mem.New()
	addr := m.Alloc(1<<20, mem.LineSize) // spans multiple pages
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addr + uint64(i%(1<<17))*8
		m.Store(a, uint64(i))
		if m.Load(a) != uint64(i) {
			b.Fatal("mem mismatch")
		}
	}
}
