package sim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
)

// The scheduler differential suite is the executable form of the lease
// equivalence argument: for every program, the grant-lease scheduler and
// the reference per-op handoff scheduler must produce byte-identical
// simulated results — identical per-core clocks, statistics, memory
// contents and trace bytes. The lease only continues while the leased
// core's pre-op (clock, id) is below every other active core's, so the
// reference scheduler would have granted the same core anyway. The
// reference grants every operation, Exec included; the lease loops absorb
// each Exec without a grant, so the same comparison proves that Exec
// commutes with every other core's operations.

// splitMix is a tiny deterministic PRNG for generating random programs.
type splitMix struct{ s uint64 }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// suspendEveryHook is a deterministic sim.FaultHook: every n-th grant
// machine-wide injects a ring transition on the granted core. It exercises
// the requirement that OnGrant fires once per granted op at the same point
// of the global operation order under both schedulers.
type suspendEveryHook struct {
	n      uint64
	grants uint64
	fired  uint64
}

func (h *suspendEveryHook) OnGrant(c *sim.Ctx) {
	h.grants++
	if h.grants%h.n == 0 {
		h.fired++
		c.InjectSuspend()
	}
}

// diffOutcome is everything a scheduler run is judged on.
type diffOutcome struct {
	wall      uint64
	clocks    []uint64
	stats     string
	trace     []byte
	memory    []uint64
	grants    uint64
	hookFired uint64
}

// runRandom executes one randomized program mix under the given scheduler
// and snapshots every observable simulated result.
func runRandom(t *testing.T, seed uint64, cores int, top sim.Topology, interruptEvery uint64, hookEvery uint64, reference bool) diffOutcome {
	t.Helper()
	cfg := sim.DefaultConfig(cores)
	cfg.Topology = top
	cfg.InterruptEvery = interruptEvery
	cfg.ReferenceScheduler = reference
	m := sim.New(cfg)
	tb := telemetry.NewTraceBuffer(1 << 14)
	m.SetTxnTrace(tb)
	var hook *suspendEveryHook
	if hookEvery > 0 {
		hook = &suspendEveryHook{n: hookEvery}
		m.SetFaultHook(hook)
	}

	// A shared region all cores contend on plus a private region per core:
	// the shared CAS traffic makes grant order observable in memory, the
	// private traffic exercises long uncontended leases.
	shared := m.Mem.AllocLines(8)
	private := make([]uint64, cores)
	for i := range private {
		private[i] = m.Mem.AllocLines(4)
	}

	progs := make([]sim.Program, cores)
	for i := range progs {
		id := i
		progs[i] = func(c *sim.Ctx) {
			r := splitMix{s: seed*1000003 + uint64(id)}
			ops := 400 + int(r.next()%200)
			cats := telemetry.Categories()
			for n := 0; n < ops; n++ {
				// 40 % Exec with the category changing between them, as in
				// real barrier traffic (register-only work is 40–50 % of all
				// operations on every scheme); the rest as before.
				switch k := r.next() % 20; {
				case k < 8:
					if k < 3 {
						c.SetCat(cats[r.next()%uint64(len(cats))])
					}
					c.Exec(1 + r.next()%7)
					if k == 0 {
						// Host code after an Exec: appended at a different
						// host position per scheduler, canonical on render.
						c.EmitTxn(telemetry.TxnEvent{Kind: "exec", Cause: fmt.Sprintf("op%d", n)})
					}
				case k < 12:
					c.Load(shared + (r.next()%64)*8)
				case k < 14:
					c.Store(shared+(r.next()%64)*8, r.next())
				case k < 15:
					old := c.Load(shared)
					c.CAS(shared, old, old+1)
				case k < 18:
					a := private[id] + (r.next()%32)*8
					c.Store(a, c.Load(a)+1)
				case k < 19:
					c.LoadSetMark(private[id], mem.LineSize)
				default:
					if _, marked := c.LoadTestMark(private[id], mem.LineSize); marked {
						c.EmitTxn(telemetry.TxnEvent{Kind: "marked", Cause: fmt.Sprintf("op%d", n)})
					}
				}
			}
		}
	}
	wall := m.Run(progs...)

	out := diffOutcome{wall: wall, grants: m.Sched().Grants}
	for i := 0; i < cores; i++ {
		out.clocks = append(out.clocks, m.Core(i).Clock())
		out.stats += fmt.Sprintln(i, *m.Stats.Block(i)) // exact, per core and category
	}
	var buf bytes.Buffer
	tb.Render(&buf, 0)
	out.trace = buf.Bytes()
	for addr := shared; addr < m.Mem.Footprint()+0x10000; addr += 8 {
		out.memory = append(out.memory, m.Mem.Load(addr))
	}
	if hook != nil {
		out.hookFired = hook.fired
	}
	return out
}

// TestSchedulerDifferential sweeps seeds × core counts × interrupt cadence
// × fault-hook cadence and demands identical outcomes from both
// schedulers, including equal grant counts (the lease reorders nothing and
// consumes exactly the same grants, just cheaper).
func TestSchedulerDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for _, cores := range []int{1, 2, 3, 4} {
			for _, ie := range []uint64{0, 700} {
				for _, hook := range []uint64{0, 97} {
					name := fmt.Sprintf("seed%d/%dcore/ie%d/hook%d", seed, cores, ie, hook)
					t.Run(name, func(t *testing.T) {
						lease := runRandom(t, seed, cores, sim.Topology{}, ie, hook, false)
						ref := runRandom(t, seed, cores, sim.Topology{}, ie, hook, true)
						diffCompare(t, lease, ref)
					})
				}
			}
		}
	}
}

// diffCompare asserts two scheduler runs produced identical simulated
// results on every observable axis.
func diffCompare(t *testing.T, lease, ref diffOutcome) {
	t.Helper()
	if lease.wall != ref.wall {
		t.Errorf("wall cycles: lease %d, reference %d", lease.wall, ref.wall)
	}
	if !reflect.DeepEqual(lease.clocks, ref.clocks) {
		t.Errorf("core clocks: lease %v, reference %v", lease.clocks, ref.clocks)
	}
	if lease.stats != ref.stats {
		t.Errorf("stats diverge:\nlease:\n%s\nreference:\n%s", lease.stats, ref.stats)
	}
	if !bytes.Equal(lease.trace, ref.trace) {
		t.Errorf("trace bytes diverge (%d vs %d bytes)", len(lease.trace), len(ref.trace))
	}
	if !reflect.DeepEqual(lease.memory, ref.memory) {
		t.Errorf("final memory contents diverge")
	}
	if lease.grants != ref.grants {
		t.Errorf("grants: lease %d, reference %d", lease.grants, ref.grants)
	}
	if lease.hookFired != ref.hookFired {
		t.Errorf("fault hook firings: lease %d, reference %d", lease.hookFired, ref.hookFired)
	}
}

// TestSchedulerDifferentialScale extends the differential to the per-socket
// lease scheduler at 64/128/256 cores. A multi-socket Topology routes Run
// through runLeaseSockets (per-socket heaps plus a cross-socket clock
// frontier); the reference scheduler on the same machine is still the
// executable spec, so identical outcomes prove the frontier composition
// selects exactly the global (clock, id) minimum on every grant.
func TestSchedulerDifferentialScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-core differential is slow under -short")
	}
	cases := []struct {
		cores int
		top   sim.Topology
	}{
		{64, sim.Topology{Sockets: 2, CoresPerSocket: 32}},
		{64, sim.Topology{Sockets: 4, CoresPerSocket: 16}},
		{128, sim.Topology{Sockets: 8, CoresPerSocket: 16}},
		{256, sim.Topology{Sockets: 4, CoresPerSocket: 64}},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 2; seed++ {
			for _, fault := range []struct{ ie, hook uint64 }{{0, 0}, {700, 97}} {
				name := fmt.Sprintf("%s/seed%d/ie%d/hook%d", tc.top, seed, fault.ie, fault.hook)
				t.Run(name, func(t *testing.T) {
					lease := runRandom(t, seed, tc.cores, tc.top, fault.ie, fault.hook, false)
					ref := runRandom(t, seed, tc.cores, tc.top, fault.ie, fault.hook, true)
					diffCompare(t, lease, ref)
				})
			}
		}
	}
}

// TestSchedCounters pins the counter semantics: single-core lease runs pay
// exactly one handoff for the whole program (plus the completion grant's),
// while the reference scheduler pays one per grant.
func TestSchedCounters(t *testing.T) {
	const ops = 100
	run := func(reference bool) sim.SchedCounters {
		cfg := sim.DefaultConfig(1)
		cfg.ReferenceScheduler = reference
		m := sim.New(cfg)
		addr := m.Mem.AllocLines(1)
		m.Run(func(c *sim.Ctx) {
			for i := 0; i < ops; i++ {
				c.Load(addr)
			}
		})
		return m.Sched()
	}

	lease := run(false)
	// ops data grants + 1 completion grant.
	if want := uint64(ops + 1); lease.Grants != want {
		t.Errorf("lease grants = %d, want %d", lease.Grants, want)
	}
	// One lease covers the whole single-core program; the completion grant
	// is consumed inline under it too.
	if lease.Leases != 1 {
		t.Errorf("lease count = %d, want 1 (single-core program is one lease)", lease.Leases)
	}
	if got := lease.HandoffsAvoided(); got != uint64(ops) {
		t.Errorf("handoffs avoided = %d, want %d", got, ops)
	}

	ref := run(true)
	if ref.Grants != lease.Grants {
		t.Errorf("reference grants = %d, want %d", ref.Grants, lease.Grants)
	}
	if ref.Leases != ref.Grants {
		t.Errorf("reference leases = %d, want %d (one handoff per grant)", ref.Leases, ref.Grants)
	}
	if ref.HandoffsAvoided() != 0 {
		t.Errorf("reference handoffs avoided = %d, want 0", ref.HandoffsAvoided())
	}

	// Host code is not a lease: a program's prologue runs under its first
	// lease and its epilogue under its last, so a program with no
	// operations at all costs exactly its completion grant, and contended
	// cores under the reference scheduler still pay one lease per grant.
	for _, reference := range []bool{false, true} {
		cfg := sim.DefaultConfig(4)
		cfg.ReferenceScheduler = reference
		m := sim.New(cfg)
		hostSections := 0
		m.Run(func(c *sim.Ctx) { hostSections++ })
		if got := m.Sched(); got != (sim.SchedCounters{Grants: 1, Leases: 1}) {
			t.Errorf("reference=%v: empty program = %+v, want 1 grant under 1 lease", reference, got)
		}

		m = sim.New(cfg)
		addr := m.Mem.AllocLines(1)
		prog := func(c *sim.Ctx) {
			hostSections++
			for i := 0; i < ops; i++ {
				c.Load(addr)
			}
			hostSections++
		}
		m.Run(prog, prog, prog, prog)
		got := m.Sched()
		if want := uint64(4 * (ops + 1)); got.Grants != want {
			t.Errorf("reference=%v: 4-core grants = %d, want %d", reference, got.Grants, want)
		}
		if reference && got.Leases != got.Grants {
			t.Errorf("reference 4-core leases = %d, want %d (one per grant)", got.Leases, got.Grants)
		}
		if !reference && got.Leases > got.Grants {
			t.Errorf("lease count %d exceeds grants %d", got.Leases, got.Grants)
		}
		if hostSections != 9 {
			t.Errorf("reference=%v: host sections ran %d times, want 9", reference, hostSections)
		}
	}

	// Exec is core-private: an Exec-only program never waits for a grant,
	// so each core runs start to finish — completion included — under the
	// one lease that first switched into it. The reference scheduler still
	// grants every Exec.
	for _, reference := range []bool{false, true} {
		cfg := sim.DefaultConfig(4)
		cfg.ReferenceScheduler = reference
		m := sim.New(cfg)
		prog := func(c *sim.Ctx) {
			for i := 0; i < ops; i++ {
				c.Exec(uint64(1 + i%3))
			}
		}
		m.Run(prog, prog, prog, prog)
		want := sim.SchedCounters{Grants: 4 * (ops + 1), Leases: 4}
		if reference {
			want.Leases = want.Grants
		}
		if got := m.Sched(); got != want {
			t.Errorf("reference=%v: Exec-only 4-core program = %+v, want %+v", reference, got, want)
		}
	}

	// A clock tie belongs to the lower id. short reaches clock 2 in two
	// steps while long gets there in one: when short runs on core 0 its
	// second step ties (2,0) against (2,1) and keeps the lease for the third
	// (4 leases; 5 if the tie were handed back); on core 1 the tie (2,1)
	// against (2,0) must be handed back so long's second step is granted
	// first (4 leases and that order; 3 if the tie were kept).
	step := func(c *sim.Ctx, cycles uint64, order *[]string, name string) {
		c.Step(func(*sim.Machine) uint64 { *order = append(*order, name); return cycles })
	}
	for _, shortOnZero := range []bool{true, false} {
		var order []string
		short := func(c *sim.Ctx) {
			step(c, 1, &order, "s1")
			step(c, 1, &order, "s2")
			step(c, 1, &order, "s3")
		}
		long := func(c *sim.Ctx) {
			step(c, 2, &order, "l1")
			step(c, 5, &order, "l2")
		}
		m := sim.New(sim.DefaultConfig(2))
		wantOrder := "[s1 l1 s2 s3 l2]"
		if shortOnZero {
			m.Run(short, long)
		} else {
			m.Run(long, short)
			wantOrder = "[l1 s1 s2 l2 s3]"
		}
		if got := m.Sched(); got != (sim.SchedCounters{Grants: 7, Leases: 4}) {
			t.Errorf("shortOnZero=%v: clock tie = %+v, want 7 grants under 4 leases", shortOnZero, got)
		}
		if got := fmt.Sprint(order); got != wantOrder {
			t.Errorf("shortOnZero=%v: grant order %s, want %s", shortOnZero, got, wantOrder)
		}
	}
}

// TestArmedMachinesGrantEveryExec pins the other half of the Exec contract:
// a machine with a per-operation duty — interrupt cadence, a fault hook, a
// watchdog — defines its ring transitions, OnGrant schedule and trip points
// per grant, so it keeps granting every Exec under the lease scheduler too,
// and the reference scheduler agrees with it on all of them.
func TestArmedMachinesGrantEveryExec(t *testing.T) {
	const cores = 3
	type outcome struct {
		sched     sim.SchedCounters
		clocks    [cores]uint64
		onGrant   uint64
		ringAt    string // "core@clock" of every Exec that absorbed a ring transition
		violation *sim.ProgressViolation
	}
	arms := []struct {
		name string
		arm  func(*sim.Config)
		hook bool
		trip string
	}{
		{name: "interrupt-every", arm: func(c *sim.Config) { c.InterruptEvery = 300 }},
		{name: "fault-hook", arm: func(*sim.Config) {}, hook: true},
		{name: "watchdog-window", arm: func(c *sim.Config) { c.WatchdogWindow = 900 }, trip: sim.KindCommitStall},
		{name: "cycle-budget", arm: func(c *sim.Config) { c.CycleBudget = 700 }, trip: sim.KindCycleBudget},
	}
	for _, a := range arms {
		t.Run(a.name, func(t *testing.T) {
			run := func(reference bool) outcome {
				cfg := sim.DefaultConfig(cores)
				cfg.ReferenceScheduler = reference
				a.arm(&cfg)
				m := sim.New(cfg)
				hook := suspendEveryHook{n: ^uint64(0)} // never fires: counts OnGrant only
				if a.hook {
					m.SetFaultHook(&hook)
				}
				line := m.Mem.AllocLines(cores)
				var out outcome
				prog := func(c *sim.Ctx) {
					// Exec-dominated, so trip points and ring transitions
					// land on Execs — which a grant-free Exec would skip.
					for i := 0; i < 400; i++ {
						before := c.Clock()
						n := uint64(1 + (i+c.ID())%4)
						c.Exec(n)
						if c.Clock()-before > n {
							out.ringAt += fmt.Sprintf(" %d@%d", c.ID(), before)
						}
						if i%5 == 0 {
							c.Load(line + uint64(c.ID())*mem.LineSize)
						}
					}
				}
				m.Run(prog, prog, prog)
				out.sched, out.onGrant, out.violation = m.Sched(), hook.grants, m.Violation()
				for i := range out.clocks {
					out.clocks[i] = m.Core(i).Clock()
				}
				return out
			}
			lease, ref := run(false), run(true)
			if !reflect.DeepEqual(lease.violation, ref.violation) {
				t.Errorf("violation reports diverge:\nlease:     %+v\nreference: %+v", lease.violation, ref.violation)
			}
			tripped, refSched := lease.violation, ref.sched
			lease.violation, ref.violation = nil, nil
			lease.sched.Leases, ref.sched.Leases = 0, 0
			if lease != ref {
				t.Errorf("armed run diverges:\nlease:     %+v\nreference: %+v", lease, ref)
			}
			// (A trip unwinds each core under the grant it already holds.)
			if a.trip == "" && refSched.Leases != refSched.Grants {
				t.Errorf("reference leases = %d, want %d (one per grant)", refSched.Leases, refSched.Grants)
			}
			switch {
			case a.trip != "":
				if tripped == nil || tripped.Kind != a.trip {
					t.Errorf("violation = %+v, want a %s trip", tripped, a.trip)
				}
			case a.hook:
				// Every operation but the per-core completion grants.
				if want := refSched.Grants - cores; lease.onGrant != want {
					t.Errorf("OnGrant ran %d times, want %d (every Exec granted)", lease.onGrant, want)
				}
			default:
				if lease.ringAt == "" {
					t.Error("no Exec absorbed a ring transition: Exec took no grant on an armed machine")
				}
			}
		})
	}
}
