package sim_test

import (
	"testing"

	"hastm.dev/hastm/internal/sim"
)

// ParseTopology returns a named error or a topology with positive
// dimensions, never panics, and the topology's String parses back to it.
func FuzzParseTopology(f *testing.F) {
	for _, seed := range []string{
		"1x4", "4x16", "8x32", // TestParseTopology, accepted
		"", "4", "4x", "x16", "0x16", "4x0", "-2x8", "axb", // and rejected
		"4x16x2", "4x16abc", "4x 16", " 4x16", "4x16 ", "+4x+16", "4X16", "99999999999x1",
		"04x016", "2147483647x2147483647", "2147483648x1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		v, err := sim.ParseTopology(text)
		if err != nil {
			if v != (sim.Topology{}) || err.Error() == "" {
				t.Fatalf("ParseTopology(%q) = %+v, %q: want a zero topology and a message", text, v, err)
			}
			return
		}
		if v.Sockets <= 0 || v.CoresPerSocket <= 0 {
			t.Fatalf("ParseTopology(%q) = %+v: accepted a non-positive dimension", text, v)
		}
		if again, err := sim.ParseTopology(v.String()); err != nil || again != v {
			t.Fatalf("ParseTopology(%q) = %+v; its String %q parses to %+v, %v", text, v, v.String(), again, err)
		}
	})
}

// FuzzSchedulerDifferential is the randomized scheduler differential over
// generated machines: a program seed, 1–4 sockets of 1–8 cores each, an
// interrupt cadence and a fault-hook cadence. Both schedulers must agree on
// every simulated result (diffCompare), and neither may pay more than two
// coroutine switches per lease.
func FuzzSchedulerDifferential(f *testing.F) {
	for _, tc := range diffCases() {
		f.Add(tc.seed, uint8(0), uint8(tc.cores-1), uint16(tc.ie), uint16(tc.hook))
	}
	f.Fuzz(func(t *testing.T, seed uint64, sockets, coresPerSocket uint8, ie, hook uint16) {
		top := sim.Topology{Sockets: 1 + int(sockets%4), CoresPerSocket: 1 + int(coresPerSocket%8)}
		n := top.Sockets * top.CoresPerSocket
		lease := runRandom(t, seed, n, top, uint64(ie), uint64(hook), false)
		ref := runRandom(t, seed, n, top, uint64(ie), uint64(hook), true)
		diffCompare(t, lease, ref)
		for name, s := range map[string]sim.SchedCounters{"lease": lease.sched, "reference": ref.sched} {
			if s.Switches > 2*s.Leases {
				t.Errorf("%s: %d switches for %d leases, want at most two per lease", name, s.Switches, s.Leases)
			}
		}
	})
}
