package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/telemetry"
)

// A run where no core ever reports a commit must trip the commit-progress
// watchdog with a structured violation instead of spinning to completion.
func TestCommitStallTripsWatchdog(t *testing.T) {
	cfg := tinyConfig(2)
	cfg.WatchdogWindow = 10_000
	m := New(cfg)
	m.Run(func(c *Ctx) {
		c.SetStatus("spin", 3)
		for i := 0; i < 100_000; i++ {
			c.Exec(1)
		}
	}, func(c *Ctx) {
		for i := 0; i < 100_000; i++ {
			c.Exec(1)
		}
	})
	v := m.Violation()
	if v == nil {
		t.Fatal("no commit for 100k cycles and the 10k watchdog did not trip")
	}
	if v.Kind != KindCommitStall {
		t.Fatalf("violation kind = %q, want %q", v.Kind, KindCommitStall)
	}
	if len(v.Cores) != 2 {
		t.Fatalf("violation snapshots %d cores, want 2", len(v.Cores))
	}
	snap := v.Cores[0]
	if snap.Status != "spin" || snap.Attempt != 3 {
		t.Errorf("core 0 snapshot status=%q attempt=%d, want spin/3", snap.Status, snap.Attempt)
	}
	if err := m.CheckHealth(); err == nil || !strings.Contains(err.Error(), "ProgressViolation") {
		t.Errorf("CheckHealth = %v, want a ProgressViolation", err)
	}
}

// NoteCommit feeds the watchdog: a run that commits regularly inside the
// window must not trip it.
func TestCommitsFeedWatchdog(t *testing.T) {
	cfg := tinyConfig(1)
	cfg.WatchdogWindow = 10_000
	m := New(cfg)
	m.Run(func(c *Ctx) {
		for i := 0; i < 50; i++ {
			c.Exec(5_000)
			c.NoteCommit()
		}
	})
	if v := m.Violation(); v != nil {
		t.Fatalf("watchdog tripped on a committing run: %v", v)
	}
}

// Exceeding the hard cycle budget fails the run even while commits flow —
// the backstop for "livelocks" that still commit occasionally (and for
// the starvation cell, where the starved core never commits but everyone
// else does).
func TestCycleBudgetTrips(t *testing.T) {
	cfg := tinyConfig(1)
	cfg.CycleBudget = 50_000
	m := New(cfg)
	m.Run(func(c *Ctx) {
		for i := 0; i < 1000; i++ {
			c.Exec(1_000)
			c.NoteCommit()
		}
	})
	v := m.Violation()
	if v == nil {
		t.Fatal("cycle budget 50k not enforced over a 1M-cycle program")
	}
	if v.Kind != KindCycleBudget {
		t.Fatalf("violation kind = %q, want %q", v.Kind, KindCycleBudget)
	}
	if v.TripClock <= cfg.CycleBudget {
		t.Errorf("trip clock %d not past the budget %d", v.TripClock, cfg.CycleBudget)
	}
}

// Watchdog trips must be identical under the lease and the reference
// schedulers: same kind, same trip core, same clocks, same snapshots.
func TestViolationSchedulerIdentical(t *testing.T) {
	run := func(reference bool) *ProgressViolation {
		cfg := tinyConfig(2)
		cfg.ReferenceScheduler = reference
		cfg.WatchdogWindow = 8_000
		m := New(cfg)
		shared := m.Mem.Alloc(mem.LineSize, mem.LineSize)
		prog := func(c *Ctx) {
			for i := 0; i < 50_000; i++ {
				c.Load(shared)
			}
		}
		m.Run(prog, prog)
		return m.Violation()
	}
	lease, ref := run(false), run(true)
	if lease == nil || ref == nil {
		t.Fatalf("watchdog did not trip under both schedulers: lease=%v ref=%v", lease, ref)
	}
	if !reflect.DeepEqual(lease, ref) {
		t.Errorf("violations differ between schedulers:\n%+v\n%+v", lease, ref)
	}
}

// A panicking core program must be contained at the grant boundary: the
// run completes (no hang, no process crash), the fault is reported with
// core, clock and stack, and sibling cores are stopped at their next
// grant rather than running to completion.
func TestCorePanicContained(t *testing.T) {
	cfg := tinyConfig(2)
	cfg.WatchdogWindow = 1 << 40 // arm the watch plane without a realistic window
	m := New(cfg)
	sibDone := false
	m.Run(func(c *Ctx) {
		c.Exec(100)
		panic("injected core fault")
	}, func(c *Ctx) {
		for i := 0; i < 1_000_000; i++ {
			c.Exec(1)
		}
		sibDone = true
	})
	faults := m.Faults()
	if len(faults) != 1 {
		t.Fatalf("faults = %d, want 1", len(faults))
	}
	f := faults[0]
	if f.Core != 0 || !strings.Contains(f.Value, "injected core fault") || f.Stack == "" {
		t.Errorf("fault = %+v, want core 0 with value and stack", f)
	}
	if sibDone {
		t.Error("sibling core ran to completion after the fault instead of stopping at a grant")
	}
	if err := m.CheckHealth(); err == nil || !strings.Contains(err.Error(), "CoreFault") {
		t.Errorf("CheckHealth = %v, want the CoreFault", err)
	}
}

// Without the watch plane armed, a panic is still contained and reported
// (containment is unconditional; only the watchdogs are optional).
func TestCorePanicContainedWithoutWatchdogs(t *testing.T) {
	m := New(tinyConfig(1))
	m.Run(func(c *Ctx) {
		c.Exec(10)
		panic("bare panic")
	})
	if err := m.CheckHealth(); err == nil || !strings.Contains(err.Error(), "bare panic") {
		t.Errorf("CheckHealth = %v, want the contained panic", err)
	}
}

// A Store from a core without a lease is posted and retired later, maybe on
// another core's coroutine. One to a misaligned or unallocated address must
// not be: it still faults on its own core, at the clock its grant would
// run at — after the valid store posted ahead of it has retired.
func TestUnleasedBadStoreFaultsItsCore(t *testing.T) {
	for name, bad := range map[string]func(line uint64) uint64{
		"misaligned":  func(line uint64) uint64 { return line + 4 },
		"unallocated": func(uint64) uint64 { return 8 },
	} {
		t.Run(name, func(t *testing.T) {
			m := New(tinyConfig(2))
			lines := m.Mem.AllocLines(2)
			var unleased bool
			var postedAt uint64
			m.Run(func(c *Ctx) {
				for i := 0; i < 40; i++ {
					c.Load(lines)
				}
			}, func(c *Ctx) {
				own := lines + mem.LineSize
				for i := 0; i < 10; i++ {
					c.Load(own)
				}
				unleased = !c.leased
				c.Store(own, 7) // posted
				postedAt = c.clock
				c.Store(bad(own), 1)
				t.Error("a bad store did not fault")
			})
			fs := m.Faults()
			if !unleased || len(fs) != 1 {
				t.Fatalf("unleased=%v, faults %+v: want one fault of an unleased store", unleased, fs)
			}
			if f := fs[0]; f.Core != 1 || !strings.Contains(f.Value, "mem: ") || f.Clock <= postedAt {
				t.Errorf("fault = %+v, want core 1's mem panic after its posted store (clock %d) retired", f, postedAt)
			}
			if got := m.Mem.Load(lines + mem.LineSize); got != 7 {
				t.Errorf("the store posted ahead of the bad one wrote %d, want 7", got)
			}
		})
	}
}

// A core that panics with a store still posted ran the store first: its
// fault carries the clock the reference scheduler's grant gives it.
func TestPanicBehindAPostedStore(t *testing.T) {
	run := func(reference bool) (f CoreFault, posted bool) {
		cfg := tinyConfig(2)
		cfg.ReferenceScheduler = reference
		m := New(cfg)
		lines := m.Mem.AllocLines(2)
		m.Run(func(c *Ctx) {
			for i := 0; i < 40; i++ {
				c.Load(lines)
			}
		}, func(c *Ctx) {
			own := lines + mem.LineSize
			for i := 0; i < 10; i++ {
				c.Load(own)
			}
			c.Store(own, 7)
			posted = c.postLen != 0
			panic("behind a posted store")
		})
		fs := m.Faults()
		if len(fs) != 1 {
			t.Fatalf("reference=%v: faults %+v, want one", reference, fs)
		}
		return fs[0], posted
	}
	lease, posted := run(false)
	ref, _ := run(true)
	if !posted {
		t.Fatal("the store was not posted: nothing to retire before the fault")
	}
	if lease.Core != ref.Core || lease.Clock != ref.Clock {
		t.Errorf("fault at core %d clock %d, reference core %d clock %d", lease.Core, lease.Clock, ref.Core, ref.Clock)
	}
}

// After a sibling's fault each core stops at its next operation, under the
// lease scheduler as under the reference, though the lease may reach the
// core outside an operation: at its program's start, or in a Clock that
// waits for its posted store (which the fault then drops). Neither core 1
// nor its store runs again, so both schedulers end it at the same clock.
func TestSiblingStopsAtItsNextOperation(t *testing.T) {
	for name, prog1 := range map[string]func(line uint64) Program{
		"start": func(line uint64) Program { return func(c *Ctx) { c.Load(line) } },
		"clock": func(line uint64) Program {
			return func(c *Ctx) {
				c.Load(line)
				c.Exec(1000) // absorbed: core 1 runs ahead of core 0
				c.Store(line, 1)
				c.Clock()
				c.Load(line)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			run := func(reference bool) (clock, grants uint64, stored uint64) {
				cfg := tinyConfig(2)
				cfg.ReferenceScheduler = reference
				m := New(cfg)
				line := m.Mem.AllocLines(2)
				m.Run(func(c *Ctx) {
					for i := 0; name == "clock" && i < 3; i++ {
						c.Load(line)
					}
					panic("sibling fault")
				}, prog1(line+mem.LineSize))
				if fs := m.Faults(); len(fs) != 1 {
					t.Fatalf("reference=%v: faults %+v, want one", reference, fs)
				}
				return m.Core(1).clock, m.Sched().Grants, m.Mem.Load(line + mem.LineSize)
			}
			lc, lg, ls := run(false)
			rc, rg, rs := run(true)
			if lc != rc || lg != rg || ls != rs {
				t.Errorf("core 1 at clock %d, %d grants, stored %d; reference %d, %d, %d", lc, lg, ls, rc, rg, rs)
			}
		})
	}
}

// A posted operation is checked against the watchdog threshold where it
// starts, so the posts a Clock waits for can end past the threshold. The
// lease that Clock's wait ends in must not carry the core's next operation
// past its check: core 0 posts a store that misses and an Exec that
// crosses the window, reads its clock, and its Exec(1) trips at the key
// the reference gives it — not one operation later.
func TestClockAfterPostsChecksTheNextOperation(t *testing.T) {
	run := func(reference bool) (*ProgressViolation, bool) {
		cfg := tinyConfig(3)
		cfg.ReferenceScheduler = reference
		cfg.WatchdogWindow = 300
		m := New(cfg)
		lines := m.Mem.AllocLines(3)
		var posted bool
		m.Run(func(c *Ctx) {
			c.Exec(50) // the lease ends here
			c.Store(lines, 1)
			c.Exec(100)
			posted = c.postLen != 0
			if got := c.Clock(); got != 350 {
				t.Errorf("reference=%v: Clock() = %d, want 350", reference, got)
			}
			c.Exec(1)
			c.Load(lines)
		}, func(c *Ctx) {
			c.Exec(400)
			c.Load(lines + mem.LineSize)
		}, func(c *Ctx) {
			c.Exec(400)
			c.Load(lines + 2*mem.LineSize)
		})
		return m.Violation(), posted
	}
	lease, posted := run(false)
	ref, _ := run(true)
	if !posted {
		t.Fatal("core 0 posted nothing: Clock had nothing to wait for")
	}
	if ref == nil || ref.TripCore != 0 || ref.TripClock != 350 {
		t.Fatalf("reference violation = %+v, want core 0's Exec(1) to trip at 350", ref)
	}
	if !reflect.DeepEqual(lease, ref) {
		t.Errorf("violations differ between schedulers:\nlease:     %+v\nreference: %+v", lease, ref)
	}
}

// A program that blocks forever in host code (not on simulated work) is a
// host deadlock: the stall monitor must cut the run short with a
// host-deadlock violation instead of hanging the process, and the report
// must name the blocked core — whether it blocks before its first acquire,
// between operations, or after its last one on the way to completion. On
// four cores spinning in step each core's lease ends after one Exec and it
// enters the next core itself, so the blocked core of the 4-core rows sits
// at the top of a chain of coroutines three (mid-run) or four (prologue)
// deep, and every core below it is parked inside a next.
func TestHostDeadlockDetected(t *testing.T) {
	spin := func(c *Ctx) {
		for i := 0; i < 1_000_000; i++ {
			c.Exec(1)
		}
	}
	prologue := func(block <-chan struct{}) Program {
		return func(c *Ctx) { <-block; c.Exec(10) }
	}
	midRun := func(block <-chan struct{}) Program {
		return func(c *Ctx) { c.Exec(10); <-block; c.Exec(10) }
	}
	cases := []struct {
		name           string
		cores, blocked int
		prog           func(block <-chan struct{}) Program // the blocking core's program
	}{
		{"prologue", 2, 1, prologue},
		{"mid-run", 2, 0, midRun},
		{"completion", 2, 1, func(block <-chan struct{}) Program {
			return func(c *Ctx) { c.Exec(10); <-block }
		}},
		{"prologue-4core", 4, 3, prologue},
		{"mid-run-4core", 4, 2, midRun},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			cfg := tinyConfig(tc.cores)
			cfg.StallTimeout = 100 * time.Millisecond
			m := New(cfg)
			block := make(chan struct{}) // closed only after the verdict: a real host-side deadlock
			progs := make([]Program, tc.cores)
			for i := range progs {
				progs[i] = spin
			}
			progs[tc.blocked] = tc.prog(block)
			done := make(chan struct{})
			go func() {
				defer close(done)
				m.Run(progs...)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("Run did not return: host deadlock not detected")
			}
			v := m.Violation()
			if v == nil {
				t.Fatal("no host-deadlock violation recorded")
			}
			if v.Kind != KindHostDeadlock {
				t.Fatalf("violation kind = %q, want %q", v.Kind, KindHostDeadlock)
			}
			if v.TripCore != tc.blocked {
				t.Errorf("trip core = %d, want the blocked core %d", v.TripCore, tc.blocked)
			}
			for _, s := range v.Cores {
				if s.Unresponsive != (s.Core == tc.blocked) {
					t.Errorf("core %d unresponsive = %v, blocked core is %d", s.Core, s.Unresponsive, tc.blocked)
				}
			}
			// Unblocked, the abandoned machine stops every core at its
			// next grant and drains: nothing stays parked at a yield.
			close(block)
			waitGoroutines(t, base)
		})
	}
}

// waitGoroutines waits for the goroutine count to fall back to base: the
// machine's goroutine, the stall monitor and every core coroutine have exited.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still alive, baseline %d: a core coroutine was abandoned",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// Every way a run can end must leave no goroutine behind: each parked
// coroutine is driven to completion, never abandoned at a yield.
func TestRunLeavesNoGoroutines(t *testing.T) {
	spin := func(c *Ctx) {
		for i := 0; i < 50_000; i++ {
			c.Exec(1)
		}
	}
	// Cores contending for one line hand the grant to one another, so a
	// core is mostly entered by another core's handoff, deep in a chain.
	load := func(line uint64) Program {
		return func(c *Ctx) {
			for i := 0; i < 2_000; i++ {
				c.Load(line)
				if c.ID() == 2 && i == 1_000 {
					panic("nested core fault")
				}
			}
		}
	}
	firstThenSpin := func(first Program) func(uint64) []Program {
		return func(uint64) []Program { return []Program{first, spin, spin, spin} }
	}
	cases := []struct {
		name  string
		arm   func(cfg *Config)
		progs func(line uint64) []Program
		check func(t *testing.T, m *Machine)
	}{
		{"clean", func(*Config) {}, firstThenSpin(spin), func(t *testing.T, m *Machine) {
			if err := m.CheckHealth(); err != nil {
				t.Errorf("clean run unhealthy: %v", err)
			}
		}},
		{"commit-stall", func(cfg *Config) { cfg.WatchdogWindow = 5_000 }, firstThenSpin(spin), wantViolation(KindCommitStall)},
		{"cycle-budget", func(cfg *Config) { cfg.CycleBudget = 5_000 }, firstThenSpin(spin), wantViolation(KindCycleBudget)},
		{"core-panic", func(cfg *Config) { cfg.WatchdogWindow = 1 << 40 },
			firstThenSpin(func(c *Ctx) { c.Exec(100); panic("injected core fault") }),
			wantOneFault},
		{"core-panic-unwatched", func(*Config) {},
			firstThenSpin(func(c *Ctx) { panic("prologue fault") }),
			wantOneFault},
		{"core-panic-nested", func(*Config) {},
			func(line uint64) []Program { return []Program{load(line), load(line), load(line), load(line)} },
			wantOneFault},
	}
	for _, reference := range []bool{false, true} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/reference=%v", tc.name, reference), func(t *testing.T) {
				base := runtime.NumGoroutine()
				cfg := tinyConfig(4)
				cfg.ReferenceScheduler = reference
				tc.arm(&cfg)
				m := New(cfg)
				m.Run(tc.progs(m.Mem.AllocLines(1))...)
				tc.check(t, m)
				waitGoroutines(t, base)
			})
		}
	}
}

func wantOneFault(t *testing.T, m *Machine) {
	if n := len(m.Faults()); n != 1 {
		t.Errorf("faults = %d, want 1", n)
	}
}

func wantViolation(kind string) func(*testing.T, *Machine) {
	return func(t *testing.T, m *Machine) {
		if v := m.Violation(); v == nil || v.Kind != kind {
			t.Errorf("violation = %v, want kind %q", v, kind)
		}
	}
}

// The host cost of building and running a machine is pinned: the cache
// levels allocate one slab each (not one slice per set), and a core's
// coroutine costs about a dozen allocations. Ceilings carry ~20% headroom
// over the measured 38 (1 core) and 90 (4 cores) for toolchain drift; the
// per-set layout this replaced measured 2140 and 2352.
func TestNewRunAllocationCeiling(t *testing.T) {
	for _, tc := range []struct {
		cores   int
		ceiling float64
	}{{1, 46}, {4, 108}} {
		progs := make([]Program, tc.cores)
		for i := range progs {
			progs[i] = func(c *Ctx) { c.Exec(1); c.Exec(1) }
		}
		got := testing.AllocsPerRun(10, func() { New(DefaultConfig(tc.cores)).Run(progs...) })
		if got > tc.ceiling {
			t.Errorf("New+Run at %d cores = %.0f allocations, ceiling %.0f", tc.cores, got, tc.ceiling)
		}
	}
}

// A Machine and a Ctx per core are allocated per cell, so their sizes are
// host bytes per cell: the post queue and the RFO switch are packed into
// the 352 and 448 bytes they took before them (both Go size classes).
func TestMachineAndCtxSizes(t *testing.T) {
	if got := unsafe.Sizeof(Ctx{}); got > 352 {
		t.Errorf("Ctx is %d bytes, want at most 352", got)
	}
	if got := unsafe.Sizeof(Machine{}); got > 448 {
		t.Errorf("Machine is %d bytes, want at most 448", got)
	}
}

// Violations carry the tail of the event trace when one is attached.
func TestViolationCarriesRecentTrace(t *testing.T) {
	cfg := tinyConfig(1)
	cfg.WatchdogWindow = 5_000
	m := New(cfg)
	m.SetTxnTrace(telemetry.NewTraceBuffer(1 << 12))
	m.Run(func(c *Ctx) {
		for i := 0; i < 100; i++ {
			c.EmitTxn(telemetry.TxnEvent{Kind: "spin", Cause: "round"})
			c.Exec(1_000)
		}
	})
	v := m.Violation()
	if v == nil {
		t.Fatal("watchdog did not trip")
	}
	if len(v.RecentTrace) == 0 {
		t.Fatal("violation carries no recent trace despite an attached buffer")
	}
	if len(v.RecentTrace) > recentTraceTail {
		t.Errorf("recent trace %d events, cap is %d", len(v.RecentTrace), recentTraceTail)
	}
}

// The violation report renders without panicking and includes per-core
// rows (a smoke test for the diagnosis formatting).
func TestViolationRender(t *testing.T) {
	cfg := tinyConfig(2)
	cfg.CycleBudget = 10_000
	m := New(cfg)
	prog := func(c *Ctx) {
		for i := 0; i < 100_000; i++ {
			c.Exec(1)
		}
	}
	m.Run(prog, prog)
	v := m.Violation()
	if v == nil {
		t.Fatal("no violation")
	}
	out := v.String()
	for _, want := range []string{"ProgressViolation", "cycle-budget", "core"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered violation missing %q:\n%s", want, out)
		}
	}
}

// The host stall monitor restarts its window whenever the grant heartbeat
// moves between two of its ticks: a program that keeps granting for several
// ticks is never reported stalled.
func TestStallMonitorFollowsTheHeartbeat(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.StallTimeout = time.Second // a tick every 125 ms
	m := New(cfg)
	addr := m.Mem.Alloc(64, 64)
	m.Run(func(c *Ctx) {
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
			c.Store(addr, c.Load(addr)+1)
		}
	})
	if err := m.CheckHealth(); err != nil {
		t.Fatal(err)
	}
}

// With the stall monitor armed alone — no window, no budget — a single
// core that runs on under one lease without committing still beats: the
// threshold stands stallBeat cycles past each check, so a run that lasts
// several timeouts in host time is not taken for a host deadlock.
func TestStallMonitorAloneBeatsOnALongLease(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.StallTimeout = 200 * time.Millisecond
	m := New(cfg)
	m.Run(func(c *Ctx) {
		for i := 0; i < 40; i++ { // ~4 timeouts, a check every 4 rounds
			c.Exec(stallBeat / 4)
			time.Sleep(10 * time.Millisecond)
		}
	})
	if err := m.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	if s := m.Sched(); s.Leases < 10 {
		t.Errorf("%d leases over %d cycles: the lease did not end at each beat", s.Leases, 10*stallBeat)
	}
}
