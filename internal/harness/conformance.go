package harness

import (
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

// FinalStateHash runs o.Ops retry-stable operations (workloads.
// RunThreadStable) on the named scheme and workload, split across cores,
// then fingerprints the structure's final contents. With one core the
// operation sequence is identical for every scheme — aborts replay the
// same operation — so every correct scheme must return the same hash: the
// cross-scheme conformance property. With several cores the hash is still
// deterministic per scheme (the simulator's interleaving is), but schemes
// may legitimately differ because commit order differs.
func FinalStateHash(scheme, workload string, cores int, o Options, updatePct int) (uint64, error) {
	c, err := newSimCell(simSpec{scheme: scheme, workload: workload, threads: cores, o: o})
	if err != nil {
		return 0, err
	}
	ds := c.structure()
	cfg := workloads.DriverConfig{Ops: c.ops, UpdatePercent: updatePct, Seed: o.Seed}
	_, res := c.run(warmKept, nil, func(_ *sim.Ctx, th tm.Thread, _ int) error {
		return workloads.RunThreadStable(th, ds, cfg)
	})
	if err := res.verdict(nil); err != nil {
		return 0, err
	}
	return workloads.Fingerprint(ds, workloads.Direct{M: c.m.Mem}), nil
}
