package service

import (
	"testing"

	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/stm"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

// The request loop builds its transaction body, attempt counter and per-op
// generator once per run, so a request costs the host allocator next to
// nothing: what is left is per run (admission state, the gap stream) and
// the op log's growth.
func TestRunCoreSimAllocationsPerRequest(t *testing.T) {
	const requests = 512
	cfg := Config{
		Bank:      BankConfig{Keys: 1024, Slots: 4096, ZipfS: 0.9},
		Requests:  requests,
		Warmup:    64,
		MeanGap:   512,
		Seed:      1,
		Admission: AdmissionConfig{ShedAfterCycles: 20_000, HotThreshold: 6},
	}
	machine := sim.New(sim.DefaultConfig(1))
	sys := stm.New(machine, tm.Config{})
	bank := NewBank(machine.Mem, cfg.Bank)
	bank.Populate(machine.Mem, workloads.NewRand(cfg.Seed))

	var perRun float64
	var cm CellMetrics
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		if err := RunWarmup(th, bank, cfg); err != nil {
			t.Error(err)
			return
		}
		log := workloads.NewOpLog()
		perRun = testing.AllocsPerRun(5, func() {
			if err := RunCoreSim(c, th, bank, cfg, &cm, log); err != nil {
				t.Error(err)
			}
		})
	})
	if cm.Committed == 0 {
		t.Fatal("no request committed")
	}
	t.Logf("%.0f allocations per %d-request run", perRun, requests)
	if got := perRun / requests; got > 0.2 {
		t.Errorf("RunCoreSim allocates %.3f objects per request (%.0f per %d-request run), want <= 0.2",
			got, perRun, requests)
	}
}
