package workloads

import (
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/tm"
)

// Micro is the §7.3 microbenchmark kernel: a critical section emulating
// the memory characteristics of the Java/pthreads workloads of Fig 13,
// with a configurable load fraction (60–90%), load cache-reuse rate
// (40–60%) and a store cache-reuse rate held at 40% like the paper.
//
// Each transaction issues AccessesPerTxn memory operations. A "reuse"
// access targets a cache line the transaction has already touched; a
// fresh access advances to a line it has not.
type Micro struct {
	base  uint64
	lines uint64

	AccessesPerTxn int
	LoadPercent    int // fraction of accesses that are loads
	LoadReuse      int // fraction of loads hitting an already-touched line
	StoreReuse     int // fraction of stores hitting an already-touched line
}

// NewMicro allocates the kernel's working region with the given number of
// cache lines.
func NewMicro(m *mem.Memory, lines uint64) *Micro {
	return &Micro{
		base:           m.Alloc(lines*mem.LineSize, mem.LineSize),
		lines:          lines,
		AccessesPerTxn: 100,
		LoadPercent:    80,
		LoadReuse:      50,
		StoreReuse:     40,
	}
}

// Op runs one critical section of the kernel. The update flag is ignored —
// the load/store mix is governed by LoadPercent.
func (mi *Micro) Op(tx tm.Txn, r *Rand, update bool) error {
	touched := make([]uint64, 0, mi.AccessesPerTxn)
	cursor := r.Intn(mi.lines)
	fresh := func() uint64 {
		line := cursor
		cursor = (cursor + 1) % mi.lines
		touched = append(touched, line)
		return line
	}
	pick := func(reusePct int) uint64 {
		if len(touched) > 0 && r.Percent(reusePct) {
			return touched[r.Intn(uint64(len(touched)))]
		}
		return fresh()
	}
	for i := 0; i < mi.AccessesPerTxn; i++ {
		isLoad := r.Percent(mi.LoadPercent)
		var line uint64
		if isLoad {
			line = pick(mi.LoadReuse)
		} else {
			line = pick(mi.StoreReuse)
		}
		addr := mi.base + line*mem.LineSize + r.Intn(8)*mem.WordSize
		tx.Exec(3) // address arithmetic and loop compute between accesses
		if isLoad {
			tx.Load(addr)
		} else {
			tx.Store(addr, r.Next())
		}
	}
	return nil
}
