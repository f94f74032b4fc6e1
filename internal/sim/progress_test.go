package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

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

// A program that blocks forever in host code (not on simulated work) is a
// host deadlock: the stall monitor must cut the run short with a
// host-deadlock violation instead of hanging the process, and the report
// must name the blocked core — whether it blocks before its first acquire,
// between operations, or after its last one on the way to completion.
func TestHostDeadlockDetected(t *testing.T) {
	spin := func(c *Ctx) {
		for i := 0; i < 1_000_000; i++ {
			c.Exec(1)
		}
	}
	cases := []struct {
		name    string
		blocked int
		prog    func(block <-chan struct{}) Program // the blocking core's program
	}{
		{"prologue", 1, func(block <-chan struct{}) Program {
			return func(c *Ctx) { <-block; c.Exec(10) }
		}},
		{"mid-run", 0, func(block <-chan struct{}) Program {
			return func(c *Ctx) { c.Exec(10); <-block; c.Exec(10) }
		}},
		{"completion", 1, func(block <-chan struct{}) Program {
			return func(c *Ctx) { c.Exec(10); <-block }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			cfg := tinyConfig(2)
			cfg.StallTimeout = 100 * time.Millisecond
			m := New(cfg)
			block := make(chan struct{}) // closed only after the verdict: a real host-side deadlock
			progs := []Program{spin, spin}
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
			// Unblocked, the abandoned scheduler loop stops every core at its
			// next grant and drains: nothing stays parked at a yield.
			close(block)
			waitGoroutines(t, base)
		})
	}
}

// waitGoroutines waits for the goroutine count to fall back to base: the
// scheduler loop, the stall monitor and every core coroutine have exited.
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
	cases := []struct {
		name  string
		arm   func(cfg *Config)
		first Program // core 0; the other three spin
		check func(t *testing.T, m *Machine)
	}{
		{"clean", func(*Config) {}, spin, func(t *testing.T, m *Machine) {
			if err := m.CheckHealth(); err != nil {
				t.Errorf("clean run unhealthy: %v", err)
			}
		}},
		{"commit-stall", func(cfg *Config) { cfg.WatchdogWindow = 5_000 }, spin, wantViolation(KindCommitStall)},
		{"cycle-budget", func(cfg *Config) { cfg.CycleBudget = 5_000 }, spin, wantViolation(KindCycleBudget)},
		{"core-panic", func(cfg *Config) { cfg.WatchdogWindow = 1 << 40 },
			func(c *Ctx) { c.Exec(100); panic("injected core fault") },
			wantOneFault},
		{"core-panic-unwatched", func(*Config) {},
			func(c *Ctx) { panic("prologue fault") },
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
				m.Run(tc.first, spin, spin, spin)
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
