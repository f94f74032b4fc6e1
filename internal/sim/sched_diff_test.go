package sim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
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
// reference grants every operation, Exec included; the lease policy absorbs
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

// diffOutcome is everything a scheduler run is judged on.
type diffOutcome struct {
	wall      uint64
	clocks    []uint64
	stats     string
	trace     []byte
	memory    []uint64
	sched     sim.SchedCounters
	hookFired uint64
}

// runRandom executes one randomized program mix under the given scheduler
// and snapshots every observable simulated result.
func runRandom(t *testing.T, seed uint64, cores int, interruptEvery uint64, hookEvery uint64, reference bool) diffOutcome {
	t.Helper()
	cfg := sim.DefaultConfig(cores)
	cfg.ReferenceScheduler = reference
	m := sim.New(cfg)
	tb := telemetry.NewTraceBuffer(1 << 14)
	m.SetTxnTrace(tb)
	var hook *periodicHook
	if interruptEvery > 0 || hookEvery > 0 {
		hook = newPeriodicHook(cores, interruptEvery, hookEvery)
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
	// Spin-wait flags: core j raises word s of line j at op
	// (s+1)·ops/(5·cores) of its program — sooner on wider machines, so
	// waits stay short — and a core spins only on higher cores' words. The
	// highest core never waits, so every spin has a setter that gets there.
	flags := m.Mem.AllocLines(uint64(cores))
	// A barrier at op resetAt, where core 0 resets the statistics in a
	// Step. On two or more cores every flag is raised by op 4·599/10 < 300,
	// so no spin waits across the barrier. A core posts a store on each
	// side of it.
	const resetAt = 300
	arrived, goFlag := m.Mem.AllocLines(1), m.Mem.AllocLines(1)

	progs := make([]sim.Program, cores)
	for i := range progs {
		id := i
		progs[i] = func(c *sim.Ctx) {
			r := splitMix{s: seed*1000003 + uint64(id)}
			ops := 400 + int(r.next()%200)
			cats := telemetry.Categories()
			for n := 0; n < ops; n++ {
				if gap := max(1, ops/(5*cores)); n%gap == 0 && n > 0 && n/gap <= 4 {
					c.Store(flags+uint64(id)*mem.LineSize+uint64(n/gap-1)*8, 1)
				}
				if n == resetAt {
					c.Store(private[id]+8, r.next())
					resetBarrier(c, arrived, goFlag, cores)
					c.Store(private[id]+16, r.next())
				}
				// 40 % Exec with the category changing between them, as in
				// real barrier traffic (register-only work is 40–50 % of all
				// operations on every scheme); runs of stores and Execs
				// between loads, which a core without a lease posts; loads,
				// stores, CAS, marks, Clock reads and spins.
				switch k := r.next() % 23; {
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
				case k < 20:
					if _, marked := c.LoadTestMark(private[id], mem.LineSize); marked {
						c.EmitTxn(telemetry.TxnEvent{Kind: "marked", Cause: fmt.Sprintf("op%d", n)})
					}
				case k == 20:
					// Longer than the post queue, in stores and in Exec
					// categories, so both overflow.
					for j := 1 + r.next()%9; j > 0; j-- {
						if r.next()%3 == 0 {
							c.Store(shared+(r.next()%64)*8, r.next())
						} else {
							c.Store(private[id]+(r.next()%32)*8, r.next())
						}
						if r.next()%2 == 0 {
							c.SetCat(cats[r.next()%uint64(len(cats))])
							c.Exec(1 + r.next()%5)
						}
					}
				case k == 21:
					// Clock waits for the posted stores: memory records it.
					a := private[id] + (r.next()%32)*8
					c.Store(a, r.next())
					c.Exec(1 + r.next()%3)
					c.Store(a+8*(r.next()%2), c.Clock())
				case id < cores-1:
					j := uint64(id) + 1 + r.next()%uint64(cores-1-id)
					c.SpinUntil(flags+j*mem.LineSize+r.next()%4*8, 1)
				default: // word 4 is never raised: the first poll matches
					c.SpinUntil(flags+uint64(id)*mem.LineSize+32, 0)
				}
			}
			// End with stores, and an Exec, that may still be posted.
			c.Store(private[id]+24, r.next())
			c.Store(shared+(r.next()%64)*8, r.next())
			c.Exec(2)
		}
	}
	wall := m.Run(progs...)
	if err := m.CheckHealth(); err != nil {
		t.Fatal(err)
	}

	out := diffOutcome{wall: wall, sched: m.Sched()}
	for i := 0; i < cores; i++ {
		out.clocks = append(out.clocks, m.Core(i).Clock())
		out.stats += fmt.Sprintln(i, *m.Stats.Block(i)) // exact, per core and category
	}
	var buf bytes.Buffer
	tb.Render(&buf, 0)
	out.trace = buf.Bytes()
	for addr := shared; m.Mem.Allocated(addr); addr += 8 {
		out.memory = append(out.memory, m.Mem.Load(addr))
	}
	if hook != nil {
		out.hookFired = hook.fired
	}
	return out
}

// resetBarrier is the harness's warm-up barrier: each core checks in on
// arrived, core 0 waits for every core, resets the statistics in a Step
// and raises goFlag, which the others wait for. No core's Exec can land
// on the wrong side of the reset.
func resetBarrier(c *sim.Ctx, arrived, goFlag uint64, cores int) {
	for {
		old := c.Load(arrived)
		if ok, _ := c.CAS(arrived, old, old+1); ok {
			break
		}
	}
	if c.ID() != 0 {
		c.SpinUntil(goFlag, 1)
		return
	}
	c.SpinUntil(arrived, uint64(cores))
	c.Step(func(m *sim.Machine) uint64 { m.Stats.Reset(); return 1 })
	c.Store(goFlag, 1)
}

// diffCase is one flat-machine row of the scheduler differential.
type diffCase struct {
	seed     uint64
	cores    int
	ie, hook uint64
}

// diffCases sweeps seeds × core counts × interrupt cadence × fault-hook
// cadence; it is TestSchedulerDifferential's table and
// FuzzSchedulerDifferential's seed corpus.
func diffCases() []diffCase {
	var cases []diffCase
	for seed := uint64(1); seed <= 5; seed++ {
		for _, cores := range []int{1, 2, 3, 4} {
			for _, ie := range []uint64{0, 700} {
				for _, hook := range []uint64{0, 97} {
					cases = append(cases, diffCase{seed, cores, ie, hook})
				}
			}
		}
	}
	return cases
}

// TestSchedulerDifferential demands identical outcomes from both
// schedulers on every diffCases row, including equal grant counts (the
// lease reorders nothing and consumes exactly the same grants, just
// cheaper).
func TestSchedulerDifferential(t *testing.T) {
	for _, tc := range diffCases() {
		name := fmt.Sprintf("seed%d/%dcore/ie%d/hook%d", tc.seed, tc.cores, tc.ie, tc.hook)
		t.Run(name, func(t *testing.T) {
			lease := runRandom(t, tc.seed, tc.cores, tc.ie, tc.hook, false)
			ref := runRandom(t, tc.seed, tc.cores, tc.ie, tc.hook, true)
			diffCompare(t, lease, ref)
		})
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
	if lease.sched.Grants != ref.sched.Grants {
		t.Errorf("grants: lease %d, reference %d", lease.sched.Grants, ref.sched.Grants)
	}
	if lease.hookFired != ref.hookFired {
		t.Errorf("fault hook firings: lease %d, reference %d", lease.hookFired, ref.hookFired)
	}
}

// TestSchedulerDifferentialScale extends the differential to machines of
// 64/128/256 cores. The reference scheduler on the same machine is still
// the executable spec, so identical outcomes prove the lease policy's
// run-queue heap selects exactly the global (clock, id) minimum on every
// grant at that scale.
func TestSchedulerDifferentialScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-core differential is slow under -short")
	}
	for _, cores := range []int{64, 128, 256} {
		for seed := uint64(1); seed <= 2; seed++ {
			for _, fault := range []struct{ ie, hook uint64 }{{0, 0}, {700, 97}} {
				name := fmt.Sprintf("%dcore/seed%d/ie%d/hook%d", cores, seed, fault.ie, fault.hook)
				t.Run(name, func(t *testing.T) {
					t.Parallel() // each case builds its own machines
					lease := runRandom(t, seed, cores, fault.ie, fault.hook, false)
					ref := runRandom(t, seed, cores, fault.ie, fault.hook, true)
					diffCompare(t, lease, ref)
				})
			}
		}
	}
}

// TestSchedCounters pins the counter semantics: single-core lease runs pay
// exactly one lease for the whole program (plus the completion grant's),
// while the reference scheduler pays one per grant — and, re-picking the
// core already running, no coroutine switch for any of them.
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
	if got := lease.Grants - lease.Leases; got != uint64(ops) {
		t.Errorf("grants executed without a lease of their own = %d, want %d", got, ops)
	}

	ref := run(true)
	if ref.Grants != lease.Grants {
		t.Errorf("reference grants = %d, want %d", ref.Grants, lease.Grants)
	}
	if ref.Leases != ref.Grants {
		t.Errorf("reference leases = %d, want %d (one handoff per grant)", ref.Leases, ref.Grants)
	}
	// The one core is entered once and returns once under both schedulers
	// (202 switches, two per lease, while every lease went through the Run
	// goroutine).
	if lease.Switches != 2 || ref.Switches != 2 {
		t.Errorf("1-core switches: lease %d, reference %d, want 2 and 2", lease.Switches, ref.Switches)
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
		if got := m.Sched(); got != (sim.SchedCounters{Grants: 1, Leases: 1, Switches: 2}) {
			t.Errorf("reference=%v: empty program = %+v, want 1 grant under 1 lease, 2 switches", reference, got)
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
		// Four cores contending for one line hand the lease on at three
		// loads in four: 302 leases. Each core hands the grant straight to
		// the next, 404 switches in all, 4 of them the returns; through
		// the Run goroutine it was 604, two per lease. A change that moves
		// either moves the per-op handoff cost the 4-core benchmark prices.
		want := sim.SchedCounters{Grants: got.Grants, Leases: 3*ops + 2, Switches: 404}
		if reference {
			want.Leases, want.Switches = got.Grants, 408
		}
		if got != want {
			t.Errorf("reference=%v: contended 4-core program = %+v, want %+v", reference, got, want)
		}
		if hostSections != 9 {
			t.Errorf("reference=%v: host sections ran %d times, want 9", reference, hostSections)
		}
	}

	// Exec is core-private: an Exec-only program never waits for a grant,
	// so each core runs start to finish — completion included — under the
	// one lease that first switched into it: a next and a return each. The
	// reference scheduler still grants every Exec.
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
		want := sim.SchedCounters{Grants: 4 * (ops + 1), Leases: 4, Switches: 8}
		if reference {
			want.Leases, want.Switches = want.Grants, 608
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
		if got := m.Sched(); got != (sim.SchedCounters{Grants: 7, Leases: 4, Switches: 6}) {
			t.Errorf("shortOnZero=%v: clock tie = %+v, want 7 grants under 4 leases, 6 switches", shortOnZero, got)
		}
		if got := fmt.Sprint(order); got != wantOrder {
			t.Errorf("shortOnZero=%v: grant order %s, want %s", shortOnZero, got, wantOrder)
		}
	}

	t.Run("spin-wait", spinCounters)
}

// spinCounters is TestSchedCounters' spin-wait case. It pins what a parked
// spin-wait saves (Ctx.SpinUntil): a parked waiter's polls and steps are
// grants pick runs inline, with no lease and no switch. A spin whose first
// poll already reads its value costs exactly the Load it is, so a 1-core
// run's counters do not move.
func spinCounters(t *testing.T) {
	load := func(c *sim.Ctx, addr, _ uint64) { c.Load(addr) }
	spinUntil := (*sim.Ctx).SpinUntil
	// A barrier-shaped program: staggered private loads, a CAS check-in on
	// arrived, core 0 waiting for every core and the others for its goFlag.
	// The lockstep private loads take a lease each under every wait; the
	// parked waiters save the rest: 215 leases and 224 switches of the
	// literal loop's, whose last goFlag store is posted.
	run := func(cores int, reference bool, spin func(c *sim.Ctx, addr, want uint64)) sim.SchedCounters {
		cfg := sim.DefaultConfig(cores)
		cfg.ReferenceScheduler = reference
		m := sim.New(cfg)
		arrived, goFlag := m.Mem.AllocLines(1), m.Mem.AllocLines(1)
		private := m.Mem.AllocLines(uint64(cores))
		prog := func(c *sim.Ctx) {
			id := uint64(c.ID())
			for i := uint64(0); i < 20+30*id; i++ {
				c.Load(private + id*mem.LineSize)
			}
			for {
				old := c.Load(arrived)
				if ok, _ := c.CAS(arrived, old, old+1); ok {
					break
				}
			}
			if id != 0 {
				spin(c, goFlag, 1)
				return
			}
			spin(c, arrived, uint64(cores))
			c.Store(goFlag, 1)
		}
		progs := make([]sim.Program, cores)
		for i := range progs {
			progs[i] = prog
		}
		m.Run(progs...)
		return m.Sched()
	}
	for _, tc := range []struct {
		name      string
		reference bool
		spin      func(c *sim.Ctx, addr, want uint64)
		want      sim.SchedCounters
	}{
		{"parked", false, spinUntil, sim.SchedCounters{Grants: 523, Leases: 247, Switches: 318}},
		{"literal loop", false, spinLoop, sim.SchedCounters{Grants: 523, Leases: 462, Switches: 542}},
		{"reference", true, spinUntil, sim.SchedCounters{Grants: 523, Leases: 523, Switches: 548}},
	} {
		if got := run(4, tc.reference, tc.spin); got != tc.want {
			t.Errorf("4-core barrier, %s: %+v, want %+v", tc.name, got, tc.want)
		}
	}
	// 1 core: each spin reads its value on the first poll.
	if got, want := run(1, false, spinUntil), run(1, false, load); got != want {
		t.Errorf("1-core barrier: SpinUntil %+v, a Load %+v", got, want)
	}
}

// TestArmedMachinesGrantEveryExec holds the watchdogs and the fault hook to
// the reference scheduler, which grants every operation, Exec included. A
// watchdog is a clock threshold on the lease path: a lease ends at it, and
// nothing runs ahead of its grant past it, so each check runs where the
// reference runs it. A fault hook still grants every operation, because
// its OnGrant schedule is defined per grant. On 1 and 3 cores, an
// Exec-dominated program that also stores, commits and sets its status
// must give under both schedulers the same violation — kind, trip core and
// clock, last commit and every core snapshot — the same fault of a single
// panicking core and the same OnGrant schedule; a run that does not fail,
// the same clocks and grants too.
func TestArmedMachinesGrantEveryExec(t *testing.T) {
	type outcome struct {
		violation *sim.ProgressViolation
		faults    []string // core@clock: value, without the stack
		onGrant   uint64   // OnGrant calls
		schedule  uint64   // FNV-1a of each OnGrant's core and clock
		ringAt    string   // "core@clock" of every Exec that absorbed a ring transition
		clocks    []uint64
		grants    uint64
	}
	// behind: each core notes its commits behind stores it posted, with
	// gaps that grow past the window. late: the last core's one commit
	// lands past the window, keyed after the grant at which the reference
	// trips. early: core 0 ends its program past the budget, keyed after
	// the trip. zombie: the last core commits a few times, then loops on
	// Exec forever, reading nothing — only the commit-progress window ends
	// it. panics: the last core panics mid-run, and its siblings stop at
	// their next operation. two-panics: core 0 panics too, at the same
	// round, so which fault is recorded may depend on the scheduler (a core
	// that ran ahead of its grant panics ahead of siblings keyed before it);
	// each run must still record exactly one of the two and stop.
	arms := []struct {
		name                string
		arm                 func(*sim.Config)
		hook                bool
		period              uint64 // the hook's interrupt cadence
		behind, late, early bool
		zombie, panics      bool
		twoPanics           bool
		trip                string
	}{
		{name: "interrupt-every", hook: true, period: 300},
		{name: "fault-hook", hook: true},
		{name: "watchdog-window", arm: func(c *sim.Config) { c.WatchdogWindow = 300 }, trip: sim.KindCommitStall},
		{name: "commit-behind-posts", arm: func(c *sim.Config) { c.WatchdogWindow = 400 }, behind: true, trip: sim.KindCommitStall},
		{name: "late-commit", arm: func(c *sim.Config) { c.WatchdogWindow = 300 }, late: true, trip: sim.KindCommitStall},
		{name: "cycle-budget", arm: func(c *sim.Config) { c.CycleBudget = 900 }, early: true, trip: sim.KindCycleBudget},
		{name: "zombie-loop", arm: func(c *sim.Config) { c.WatchdogWindow = 2500 }, zombie: true, trip: sim.KindCommitStall},
		{name: "sibling-panic", arm: func(c *sim.Config) { c.WatchdogWindow = 1 << 40 }, panics: true},
		{name: "two-panics", arm: func(c *sim.Config) { c.WatchdogWindow = 1 << 40 }, panics: true, twoPanics: true},
	}
	for _, a := range arms {
		t.Run(a.name, func(t *testing.T) {
			for _, cores := range []int{1, 3} {
				t.Run(fmt.Sprintf("%dcore", cores), func(t *testing.T) {
					run := func(reference bool) outcome {
						cfg := sim.DefaultConfig(cores)
						cfg.ReferenceScheduler = reference
						if a.arm != nil {
							a.arm(&cfg)
						}
						m := sim.New(cfg)
						hook := &scheduleHook{periodicHook: newPeriodicHook(cores, a.period, 0), schedule: 14695981039346656037}
						if a.hook {
							m.SetFaultHook(hook)
						}
						line := m.Mem.AllocLines(uint64(cores))
						flags := m.Mem.AllocLines(uint64(cores))
						var out outcome
						prog := func(c *sim.Ctx) {
							id := uint64(c.ID())
							own := line + id*mem.LineSize
							last := id == uint64(cores-1)
							if last && a.late {
								c.Exec(350)
								c.NoteCommit()
							}
							for gap := uint64(1); a.behind; gap++ {
								c.Load(line + (id+1)%uint64(cores)*mem.LineSize) // the lease ends here
								c.Store(own, gap)
								c.Exec(gap % 3)
								if gap > 60 {
									continue // the last commit was noted behind a store
								}
								c.NoteCommit()
								c.SetStatus("gap", int(gap))
								c.Exec(1 + gap%2)
								c.Store(own+8, gap)
								c.Exec(gap * 7)
							}
							for i := uint64(0); i < 400; i++ {
								if i%40 == 0 {
									c.SetStatus("round", int(i/40))
								}
								before := c.Clock()
								n := 1 + (i+id)%4
								c.Exec(n)
								if c.Clock()-before > n {
									out.ringAt += fmt.Sprintf(" %d@%d", id, before)
								}
								switch {
								case i%5 == 0:
									c.Load(own)
								case i%7 == 0:
									c.Store(own+8*(i%4), i)
									c.Exec(2 + 30*(i%3)) // posted behind the store, maybe across a threshold
								}
								// Commits stop at a different round on each core,
								// so the window trips on whichever falls silent.
								// (A commit after a store may be noted behind it.)
								if (i%9 == 0 || i%14 == 0) && i < 120+60*id && !a.late {
									c.NoteCommit()
								}
								if last && a.zombie && i == 50 {
									for {
										c.Exec(1)
									}
								}
								if (last || id == 0 && a.twoPanics) && a.panics && i == 150 {
									panic(fmt.Sprintf("injected core %d fault", id))
								}
								if id == 0 && !last && a.early && i == 150 {
									c.Exec(600)
									return
								}
								// Each core raises its flag and waits for the
								// next core's: parked spins near the thresholds.
								if i == 200 {
									c.Store(flags+id*mem.LineSize, 1)
									c.SpinUntil(flags+(id+1)%uint64(cores)*mem.LineSize, 1)
								}
							}
						}
						progs := make([]sim.Program, cores)
						for i := range progs {
							progs[i] = prog
						}
						m.Run(progs...)
						out.violation, out.onGrant, out.schedule = m.Violation(), hook.grants, hook.schedule
						for _, f := range m.Faults() {
							out.faults = append(out.faults, fmt.Sprintf("%d@%d: %s", f.Core, f.Clock, f.Value))
						}
						for i := 0; i < cores; i++ {
							out.clocks = append(out.clocks, m.Core(i).Clock())
						}
						out.grants = m.Sched().Grants
						return out
					}
					lease, ref := run(false), run(true)
					if !reflect.DeepEqual(lease.violation, ref.violation) {
						t.Errorf("violation reports diverge:\nlease:     %+v\nreference: %+v", lease.violation, ref.violation)
					}
					if a.twoPanics && cores > 1 {
						for _, o := range []outcome{lease, ref} {
							if len(o.faults) != 1 || !strings.HasPrefix(o.faults[0], "0@") && !strings.HasPrefix(o.faults[0], fmt.Sprintf("%d@", cores-1)) {
								t.Errorf("faults = %v, want one of the two injected ones", o.faults)
							}
						}
					} else if !reflect.DeepEqual(lease.faults, ref.faults) {
						t.Errorf("faults diverge:\nlease:     %v\nreference: %v", lease.faults, ref.faults)
					}
					if lease.onGrant != ref.onGrant || lease.schedule != ref.schedule || lease.ringAt != ref.ringAt {
						t.Errorf("OnGrant schedules diverge: lease %d grants (%x)%s, reference %d (%x)%s",
							lease.onGrant, lease.schedule, lease.ringAt, ref.onGrant, ref.schedule, ref.ringAt)
					}
					// A core that ran ahead of a sibling's panic may have
					// absorbed Execs keyed after it; no report shows them.
					if !a.panics && (!reflect.DeepEqual(lease.clocks, ref.clocks) || lease.grants != ref.grants) {
						t.Errorf("clocks %v, %d grants under the lease scheduler; reference %v, %d",
							lease.clocks, lease.grants, ref.clocks, ref.grants)
					}
					switch v := lease.violation; {
					case a.late && cores > 1 && v != nil && v.LastCommitClock != 0:
						t.Errorf("violation = %+v, want a trip that sees no commit: the late one is keyed after it", v)
					case a.trip != "":
						if v == nil || v.Kind != a.trip {
							t.Errorf("violation = %+v, want a %s trip", v, a.trip)
						}
					case v != nil:
						t.Errorf("violation = %+v, want none", v)
					case a.panics:
						if len(lease.faults) != 1 {
							t.Errorf("faults = %v, want the injected one", lease.faults)
						}
					case a.hook:
						// Every operation but the per-core completion grants.
						if want := ref.grants - uint64(cores); lease.onGrant != want {
							t.Errorf("OnGrant ran %d times, want %d (every Exec granted)", lease.onGrant, want)
						}
						if a.period > 0 && lease.ringAt == "" {
							t.Error("no Exec absorbed a ring transition: Exec took no grant under a fault hook")
						}
					}
				})
			}
		})
	}
}

// scheduleHook is a periodicHook that also hashes the (core, clock) of
// every grant it sees: its OnGrant schedule.
type scheduleHook struct {
	*periodicHook
	schedule uint64
}

func (h *scheduleHook) OnGrant(c *sim.Ctx) {
	for _, v := range []uint64{uint64(c.ID()), c.Clock()} {
		h.schedule = (h.schedule ^ v) * 1099511628211
	}
	h.periodicHook.OnGrant(c)
}

// spinLoop is SpinUntil's specification: the loop it stands for.
func spinLoop(c *sim.Ctx, addr, want uint64) {
	for c.Load(addr) != want {
		c.Step(func(m *sim.Machine) uint64 { return m.Config().Lat.ALU })
	}
}

// spinOutcome is everything TestSpinUntilMatchesLoop judges a run on.
type spinOutcome struct {
	clocks, memory []uint64
	stats, caches  string
	sched          sim.SchedCounters
}

// runSpinners runs four staggered cores that spin on flags the others
// write: core 1 waits for core 0, core 0 for core 1, and cores 2 and 3 —
// arriving first, core 3 after storing to the polled line — across the
// Stats.Reset Step core 0 runs mid-spin. spin is the wait under test.
// Every charge is a granted Step: an Exec that crosses the reset is out of
// contract (see Ctx.Exec).
func runSpinners(cfg sim.Config, spin func(c *sim.Ctx, addr, want uint64)) spinOutcome {
	m := sim.New(cfg)
	alu := func(c *sim.Ctx, n uint64) { c.Step(func(*sim.Machine) uint64 { return n }) }
	flags := m.Mem.AllocLines(2)
	a, b, rel := flags, flags+8, flags+mem.LineSize
	private := m.Mem.AllocLines(4)
	prog := func(c *sim.Ctx) {
		id := uint64(c.ID())
		own := private + id*mem.LineSize
		for i := uint64(0); i < 30+23*(3-id); i++ {
			alu(c, 1+(i+id)%3)
			c.Load(own + i%8*8)
		}
		c.SetCat(telemetry.Validate)
		switch id {
		case 0:
			c.Store(a, 1)
			spin(c, b, 2)
			c.Step(func(m *sim.Machine) uint64 { m.Stats.Reset(); return 1 })
			alu(c, 40)
			c.Store(rel, 3)
		case 1:
			spin(c, a, 1)
			alu(c, 25)
			c.Store(b, 2)
			spin(c, rel, 3)
		case 2:
			c.SetCat(telemetry.RdBar)
			spin(c, rel, 3)
		default:
			for i := uint64(0); i < 40; i++ {
				c.Store(rel+8, i) // the polled line, another word
				alu(c, 7)
			}
			spin(c, rel, 3)
		}
		c.SetCat(telemetry.Commit)
		for i := uint64(0); i < 10; i++ {
			alu(c, 2)
			c.Store(own, i)
		}
	}
	m.Run(prog, prog, prog, prog)
	out := spinOutcome{sched: m.Sched()}
	for i := 0; i < cfg.Cores; i++ {
		out.clocks = append(out.clocks, m.Core(i).Clock())
		out.stats += fmt.Sprintln(i, *m.Stats.Block(i))
	}
	h := m.Caches
	out.caches = fmt.Sprint(h.L1Hits, h.L1Misses, h.L2Hits, h.L2Misses, h.Invalidations,
		h.BackInvalidations, h.Evictions, h.MarkedDrops, h.PrefetchFills)
	for addr := flags; m.Mem.Allocated(addr); addr += 8 {
		out.memory = append(out.memory, m.Mem.Load(addr))
	}
	return out
}

// TestSpinUntilMatchesLoop holds SpinUntil to the loop it is specified as.
// On an unarmed lease machine its waiters park and pick runs their polls
// and steps inline; that run must equal the reference scheduler's and the
// literal loop's on clocks, per-core per-category cycles, cache counters,
// memory and grants, and spend fewer switches than the literal loop. The
// speculative-RFO and SMT machines make an inline poll's access and
// noteAccess observable.
func TestSpinUntilMatchesLoop(t *testing.T) {
	spinUntil := (*sim.Ctx).SpinUntil
	machines := map[string]func(*sim.Config){
		"flat":     func(*sim.Config) {},
		"spec-rfo": func(c *sim.Config) { c.SpecRFOEvery = 3 },
		"smt":      func(c *sim.Config) { c.ThreadsPerCore = 2 },
	}
	for name, arm := range machines {
		t.Run(name, func(t *testing.T) {
			cfg := sim.DefaultConfig(4)
			arm(&cfg)
			parked := runSpinners(cfg, spinUntil)
			loop := runSpinners(cfg, spinLoop)
			cfg.ReferenceScheduler = true
			ref := runSpinners(cfg, spinUntil)
			for other, o := range map[string]spinOutcome{"reference": ref, "literal loop": loop} {
				got, want := parked, o
				got.sched, want.sched = sim.SchedCounters{}, sim.SchedCounters{}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("parked spin vs %s:\n%+v\n%+v", other, got, want)
				}
				if parked.sched.Grants != o.sched.Grants {
					t.Errorf("grants: parked spin %d, %s %d", parked.sched.Grants, other, o.sched.Grants)
				}
			}
			if parked.sched.Switches >= loop.sched.Switches {
				t.Errorf("parked spin paid %d switches, literal loop %d: nothing parked",
					parked.sched.Switches, loop.sched.Switches)
			}
		})
	}
}
