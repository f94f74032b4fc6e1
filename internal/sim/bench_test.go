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
// took a grant would double the handoffs.

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

// scaleTopologies are the machine shapes benchgate's scale gate compares:
// per-op host cost at 256 cores must stay within 2× of 16 cores, i.e.
// simulated cycles-per-host-second must not collapse as the machine grows.
var scaleTopologies = []struct {
	cores int
	top   sim.Topology
}{
	{16, sim.Topology{}},
	{64, sim.Topology{Sockets: 4, CoresPerSocket: 16}},
	{256, sim.Topology{Sockets: 4, CoresPerSocket: 64}},
}

// BenchmarkSimOpsScale measures the private-line load path as the core
// count grows 16→64→256. Every access is an L1 hit, so the number measures
// pure scheduler cost: the per-socket lease groups must keep it flat while
// a global O(cores) structure would not.
func BenchmarkSimOpsScale(b *testing.B) {
	for _, tc := range scaleTopologies {
		b.Run(fmt.Sprintf("%dcore", tc.cores), func(b *testing.B) {
			b.ReportAllocs()
			cfg := sim.DefaultConfig(tc.cores)
			cfg.Topology = tc.top
			m := sim.New(cfg)
			addrs := make([]uint64, tc.cores)
			for i := range addrs {
				addrs[i] = m.Mem.AllocLines(1)
			}
			per := b.N / tc.cores
			if per == 0 {
				per = 1
			}
			progs := make([]sim.Program, tc.cores)
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

// BenchmarkDirCoherence measures invalidation cost under the directory:
// cores 2i and 2i+1 ping-pong a shared line (the odd core loads what the
// even core stores), so every store invalidates exactly one sharer. With
// per-line sharer sets the walk visits that one copy regardless of machine
// size; the old broadcast snoop scanned every L1 and would scale with the
// core count.
func BenchmarkDirCoherence(b *testing.B) {
	for _, tc := range scaleTopologies {
		b.Run(fmt.Sprintf("%dcore", tc.cores), func(b *testing.B) {
			b.ReportAllocs()
			cfg := sim.DefaultConfig(tc.cores)
			cfg.Topology = tc.top
			m := sim.New(cfg)
			lines := make([]uint64, tc.cores/2)
			for i := range lines {
				lines[i] = m.Mem.AllocLines(1)
			}
			per := b.N / tc.cores
			if per == 0 {
				per = 1
			}
			progs := make([]sim.Program, tc.cores)
			for i := range progs {
				addr := lines[i/2]
				if i%2 == 0 {
					progs[i] = func(c *sim.Ctx) {
						for n := 0; n < per; n++ {
							c.Store(addr, uint64(n))
						}
					}
				} else {
					progs[i] = func(c *sim.Ctx) {
						for n := 0; n < per; n++ {
							c.Load(addr)
						}
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
