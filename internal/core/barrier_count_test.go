package core

import (
	"testing"

	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/stm"
	"hastm.dev/hastm/internal/tm"
)

// TestBarrierInstructionCounts pins the instruction count of every barrier
// path of the STM and of HASTM. On a machine where an instruction and an
// access at any cache level each cost one cycle (and nothing else costs
// anything), the clock delta of a barrier is its count of Exec
// instructions plus loads, stores, CASes and mark ops. Each path is
// measured on a transaction's first access to a word and on a repeated
// access, after warm-up transactions have filled the caches and settled
// HASTM's mode controller. A changed number is a changed barrier.
func TestBarrierInstructionCounts(t *testing.T) {
	line, obj := tm.LineGranularity, tm.ObjectGranularity
	hastm := func(edit func(*stm.HASTMConfig)) func(*sim.Machine, tm.Granularity) tm.System {
		return func(m *sim.Machine, g tm.Granularity) tm.System {
			cfg := singleThreadCfg(g)
			if edit != nil {
				edit(&cfg)
			}
			return stm.NewHASTM("hastm", m, cfg)
		}
	}
	base := func(m *sim.Machine, g tm.Granularity) tm.System {
		return stm.New(m, tm.Config{Granularity: g, ValidateEvery: 128})
	}
	cautious := func(c *stm.HASTMConfig) { c.Mode = stm.CautiousOnly }
	for _, tc := range []struct {
		path          string
		g             tm.Granularity
		build         func(*sim.Machine, tm.Granularity) tm.System
		store         bool
		first, repeat uint64
	}{
		{"stm/line/load", line, base, false, 16, 16},
		{"stm/object/load", obj, base, false, 13, 13},
		{"stm/line/store", line, base, true, 25, 15},
		{"stm/object/store", obj, base, true, 22, 12},
		{"hastm-aggressive/line/load", line, hastm(nil), false, 11, 2},
		{"hastm-aggressive/object/load", obj, hastm(nil), false, 7, 3},
		{"hastm-cautious/line/load", line, hastm(cautious), false, 18, 2},
		{"hastm-cautious/object/load", obj, hastm(cautious), false, 14, 3},
		{"hastm-noreuse/line/load", line, hastm(func(c *stm.HASTMConfig) { c.Filter = false }), false, 9, 9},
		{"hastm/line/store", line, hastm(nil), true, 26, 15},
		{"hastm/object/store", obj, hastm(nil), true, 23, 12},
		{"hastm-wfilter/line/store", line, hastm(func(c *stm.HASTMConfig) { c.FilterWrites = true }), true, 40, 8},
	} {
		first, repeat := measureBarrier(t, tc.g, tc.build, tc.store)
		if first != tc.first || repeat != tc.repeat {
			t.Errorf("%s: %d/%d instructions (first/repeat), want %d/%d",
				tc.path, first, repeat, tc.first, tc.repeat)
		}
	}
}

// measureBarrier runs warm-up transactions and returns the clock deltas of
// the last transaction's first and repeated barrier on one word.
func measureBarrier(t *testing.T, g tm.Granularity, build func(*sim.Machine, tm.Granularity) tm.System,
	store bool) (first, repeat uint64) {
	t.Helper()
	cfg := sim.DefaultConfig(1)
	cfg.Lat = sim.Latencies{ALU: 1, L1Hit: 1, L2Hit: 1, Mem: 1}
	m := sim.New(cfg)
	sys := build(m, g)
	word := m.Mem.Alloc(64, 64)
	object := stm.AllocObject(m.Mem, 16)
	m.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		barrier := func(tx tm.Txn, addr uint64) uint64 {
			start := c.Clock()
			switch {
			case g == tm.ObjectGranularity && store:
				tx.StoreObj(object, 8, 1)
			case g == tm.ObjectGranularity:
				tx.LoadObj(object, 8)
			case store:
				tx.Store(addr, 1)
			default:
				tx.Load(addr)
			}
			return c.Clock() - start
		}
		for i := 0; i < 4; i++ {
			if err := th.Atomic(func(tx tm.Txn) error {
				first = barrier(tx, word)
				repeat = barrier(tx, word)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	})
	return first, repeat
}
