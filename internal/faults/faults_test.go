package faults

import (
	"reflect"
	"testing"

	"hastm.dev/hastm/internal/cache"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
)

func testMachine(cores int) *sim.Machine {
	cfg := sim.DefaultConfig(cores)
	cfg.L1 = cache.Config{SizeBytes: 4 << 10, Assoc: 2}
	cfg.L2 = cache.Config{SizeBytes: 64 << 10, Assoc: 4}
	return sim.New(cfg)
}

func TestParseSpecRoundTrip(t *testing.T) {
	s, err := ParseSpec("suspend=600, evict=900,snoop=1300,htmabort=1500,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{SuspendEvery: 600, EvictEvery: 900, SnoopEvery: 1300, HTMAbortEvery: 1500, Seed: 3}
	if s != want {
		t.Fatalf("got %+v, want %+v", s, want)
	}
	again, err := ParseSpec(s.String())
	if err != nil || again != s {
		t.Fatalf("round trip: %+v, %v", again, err)
	}
	if !s.Enabled() {
		t.Fatal("spec with rates should be enabled")
	}
	if (Spec{Seed: 9}).Enabled() {
		t.Fatal("seed-only spec should be disabled")
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{"suspend", "suspend=x", "frob=3"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q): want error", bad)
		}
	}
}

// workload runs a fixed loop of loads/stores over a small array on each
// core, enough grants to trigger every configured fault kind.
func workload(m *sim.Machine, cores int, ops int) {
	base := m.Mem.Alloc(64*64, 64)
	progs := make([]sim.Program, cores)
	for i := 0; i < cores; i++ {
		progs[i] = func(c *sim.Ctx) {
			for j := 0; j < ops; j++ {
				addr := base + uint64((j*7+c.ID()*13)%64)*64
				c.Load(addr)
				if j%3 == 0 {
					c.Store(addr, uint64(j))
				}
				c.Exec(2)
			}
		}
	}
	m.Run(progs...)
}

func TestInjectionsFireAndAreSeeded(t *testing.T) {
	spec := Spec{SuspendEvery: 200, EvictEvery: 150, SnoopEvery: 250, Seed: 7}
	run := func() *Plane {
		m := testMachine(2)
		p := Attach(m, spec)
		workload(m, 2, 800)
		return p
	}
	p1, p2 := run(), run()
	for _, k := range []Kind{KindSuspend, KindEvict, KindSnoop} {
		if p1.Count(k) == 0 {
			t.Errorf("%s: no injections fired", k)
		}
	}
	if p1.Count(KindHTMAbort) != 0 {
		t.Errorf("htmabort fired with a zero rate")
	}
	if p1.ScheduleHash() != p2.ScheduleHash() {
		t.Fatalf("same spec, different schedules: %x vs %x", p1.ScheduleHash(), p2.ScheduleHash())
	}
	if !reflect.DeepEqual(p1.Events(), p2.Events()) {
		t.Fatal("same spec, different event logs")
	}

	m3 := testMachine(2)
	p3 := Attach(m3, Spec{SuspendEvery: 200, EvictEvery: 150, SnoopEvery: 250, Seed: 8})
	workload(m3, 2, 800)
	if p3.ScheduleHash() == p1.ScheduleHash() {
		t.Fatal("different seeds produced identical schedules")
	}
}

// A plane with all rates zero must not perturb timing. Attached, it arms
// the machine's per-operation duties, so every operation takes the
// out-of-line path: granted one by one, Stores and Execs never posted,
// spins never parked. Detached, the same programs take the inline fast
// paths. Every op kind runs on a 2-core machine with the prefetcher and
// speculative RFOs, and both runs must agree on every core's clock, every
// value the programs read, the cache counters and the telemetry totals.
func TestDisabledPlaneIsTimingNeutral(t *testing.T) {
	type outcome struct {
		clocks, reads [2]uint64
		cache         [9]uint64
		totals        telemetry.Block
	}
	run := func(attach bool) outcome {
		cfg := sim.DefaultConfig(2)
		cfg.L1 = cache.Config{SizeBytes: 4 << 10, Assoc: 2}
		cfg.L2 = cache.Config{SizeBytes: 64 << 10, Assoc: 4}
		cfg.Prefetch, cfg.SpecRFOEvery = true, 5
		m := sim.New(cfg)
		if attach {
			Attach(m, Spec{Seed: 5})
		}
		base := m.Mem.Alloc(64*64, 64)
		flag := m.Mem.AllocLines(1)
		hot := flag + 8 // both cores load and store it every iteration
		var out outcome
		progs := make([]sim.Program, 2)
		for i := range progs {
			progs[i] = func(c *sim.Ctx) {
				id := c.ID()
				sum := &out.reads[id]
				for j := 0; j < 300; j++ {
					c.SetCat(telemetry.Category(j % 3))
					a := base + uint64((j*5+id)%64)*64
					*sum += c.Load(a) + c.Load(hot)
					c.Store(a+8, uint64(j))
					c.Store(hot, uint64(2*j+id))
					c.Exec(uint64(j % 3))
					ok, v := c.CAS(a+16, uint64(j-1), uint64(j))
					*sum += v
					if ok {
						*sum++
					}
					c.Step(func(*sim.Machine) uint64 { return 2 })
					*sum += c.LoadSetMarkP(j%2, a, 16)
					v, marked := c.LoadTestMarkP(j%2, a+24, 16)
					*sum += v
					if marked {
						*sum++
					}
					*sum += c.LoadResetMarkP(j%2, a+32, 32)
					if j%7 == 0 {
						c.ResetMarkAllP(1)
					}
					if j%11 == 0 {
						c.ResetMarkCounterP(0)
					}
					*sum += c.ReadMarkCounterP(0) + c.ReadMarkCounterP(1)
				}
				if id == 0 {
					c.Exec(2000)
					c.Store(flag, 1)
				} else {
					c.SpinUntil(flag, 1)
				}
			}
		}
		m.Run(progs...)
		for i := range out.clocks {
			out.clocks[i] = m.Core(i).Clock()
		}
		h := m.Caches
		out.cache = [9]uint64{h.L1Hits, h.L1Misses, h.L2Hits, h.L2Misses, h.Invalidations,
			h.BackInvalidations, h.Evictions, h.MarkedDrops, h.PrefetchFills}
		out.totals = m.Stats.Totals()
		return out
	}
	fast, slow := run(false), run(true)
	if fast != slow {
		t.Fatalf("disabled fault plane changed the run:\nfast path %+v\nslow path %+v", fast, slow)
	}
	if fast.cache[4] == 0 || fast.totals == (telemetry.Block{}) {
		t.Fatalf("no invalidation or no telemetry: the run shares nothing: %+v", fast)
	}
}

func TestHTMAborterSkippedWithoutTarget(t *testing.T) {
	m := testMachine(1)
	p := Attach(m, Spec{HTMAbortEvery: 50, Seed: 1})
	p.RegisterHTMAborter(func(core int) bool { return false })
	workload(m, 1, 400)
	if p.Count(KindHTMAbort) != 0 {
		t.Fatal("htmabort recorded despite aborter reporting no target")
	}
	if p.Skipped() == 0 {
		t.Fatal("expected skipped injections to be counted")
	}
}

// An unknown kind still prints, and mix's splitmix finalizer, which maps
// only 0 to 0, never hands a per-core stream the zero xorshift state: the
// one seed whose sum is 0 for core 0 gets state 1.
func TestKindStringAndZeroStreamSeed(t *testing.T) {
	if got := Kind(9).String(); got != "Kind(9)" {
		t.Errorf("Kind(9).String() = %q", got)
	}
	a, c := uint64(0x9e3779b97f4a7c15), uint64(0x94d049bb133111eb)
	inv := a // Newton's iteration for the inverse mod 2^64
	for i := 0; i < 5; i++ {
		inv *= 2 - a*inv
	}
	seed := -c * inv // seed·a + c = 0
	if got := mix(seed, 0); got != 1 {
		t.Errorf("mix(%#x, 0) = %#x, want 1", seed, got)
	}
}
