package sim_test

import (
	"testing"

	"hastm.dev/hastm/internal/sim"
)

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
