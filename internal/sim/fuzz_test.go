package sim_test

import (
	"testing"

	"hastm.dev/hastm/internal/sim"
)

// FuzzSchedulerDifferential is the randomized scheduler differential over
// generated machines: a program seed, a core count of 1–32 given as two
// factors (1–4 and 1–8), an interrupt cadence and a fault-hook cadence.
// Both schedulers must agree on every simulated result (diffCompare), and
// neither may pay more than two coroutine switches per lease.
func FuzzSchedulerDifferential(f *testing.F) {
	for _, tc := range diffCases() {
		f.Add(tc.seed, uint8(0), uint8(tc.cores-1), uint16(tc.ie), uint16(tc.hook))
	}
	f.Fuzz(func(t *testing.T, seed uint64, rows, cols uint8, ie, hook uint16) {
		n := (1 + int(rows%4)) * (1 + int(cols%8))
		lease := runRandom(t, seed, n, uint64(ie), uint64(hook), false)
		ref := runRandom(t, seed, n, uint64(ie), uint64(hook), true)
		diffCompare(t, lease, ref)
		for name, s := range map[string]sim.SchedCounters{"lease": lease.sched, "reference": ref.sched} {
			if s.Switches > 2*s.Leases {
				t.Errorf("%s: %d switches for %d leases, want at most two per lease", name, s.Switches, s.Leases)
			}
		}
	})
}
