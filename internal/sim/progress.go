package sim

import (
	"fmt"
	"io"
	"runtime/debug"
	"strings"
	"time"

	"hastm.dev/hastm/internal/telemetry"
)

// This file is the simulator's progress-guarantee layer: the
// simulated-cycle watchdogs (commit-progress window, per-run cycle
// budget), the host-side deadlock detector, and panic containment at the
// grant boundary. The design constraint throughout is that exactly one
// core executes at any time — core programs are coroutines the scheduler
// loop switches between — so machine state needs no synchronisation among
// cores; the atomics and the mutex below exist only for the host stall
// detector, whose Run goroutine gives up on a scheduler loop that may
// still be running. Host code *between* grants runs outside the (clock,
// id) grant order (after giving a lease up, a program runs on to its next
// acquire before it yields), which is why NoteCommit and SetStatus write
// core-local pending fields that progressDuties publishes at the next
// grant, a deterministic point of that order.

// stopRun is the internal panic value that unwinds a core's program after
// the machine has failed (watchdog trip or a sibling core's fault). It is
// raised at grant points, recovered by the Run epilogue, and must be
// re-raised by any engine-level recover that sees it.
type stopRun struct{}

// IsStop reports whether a recovered panic value is the simulator's
// stop-unwinding signal. TM engines with recover-based control flow
// (abort/retry signals) must check IsStop first and re-panic, or a
// watchdog stop would be misread as a transaction abort.
func IsStop(r interface{}) bool {
	_, ok := r.(stopRun)
	return ok
}

// Violation kinds.
const (
	// KindCommitStall: no core published a commit within WatchdogWindow
	// simulated cycles — the livelock/starvation signature.
	KindCommitStall = "commit-stall"
	// KindCycleBudget: a core's clock passed the hard CycleBudget cap.
	KindCycleBudget = "cycle-budget"
	// KindHostDeadlock: no architectural operation was granted for
	// StallTimeout host time — the granted core is blocked in host code,
	// and with it the machine (a true deadlock, not a simulated-contention
	// condition).
	KindHostDeadlock = "host-deadlock"
)

// CoreSnapshot is one core's state in a ProgressViolation report.
type CoreSnapshot struct {
	Core    int
	Clock   uint64
	Commits uint64 // commits published at grant points
	Status  string // engine-reported execution status ("stm attempt 3", ...)
	Attempt int
	Done    bool // program finished before the violation
	// Unresponsive marks the core that held the grant when the host
	// deadlock detector fired: it is blocked (or running) in host code, so
	// its volatile fields cannot be read safely and are zero here.
	Unresponsive bool
}

// ProgressViolation is the structured report of a watchdog trip. It
// implements error; Render writes the full diagnosis.
type ProgressViolation struct {
	Kind            string
	TripCore        int    // core holding the grant at the trip
	TripClock       uint64 // that core's clock (0 for host-deadlock)
	WatchdogWindow  uint64
	CycleBudget     uint64
	LastCommitClock uint64
	Cores           []CoreSnapshot
	RecentTrace     []telemetry.TxnEvent // tail of the event trace, if attached
}

func (v *ProgressViolation) Error() string {
	switch v.Kind {
	case KindCommitStall:
		return fmt.Sprintf("sim: ProgressViolation %s: no commit for %d cycles (last at %d, tripped by core %d at %d)",
			v.Kind, v.TripClock-v.LastCommitClock, v.LastCommitClock, v.TripCore, v.TripClock)
	case KindCycleBudget:
		return fmt.Sprintf("sim: ProgressViolation %s: core %d reached cycle %d (budget %d)",
			v.Kind, v.TripCore, v.TripClock, v.CycleBudget)
	default:
		return fmt.Sprintf("sim: ProgressViolation %s: no grant for the stall timeout; core %d unresponsive",
			v.Kind, v.TripCore)
	}
}

// Render writes the per-core diagnosis and the recent trace tail.
func (v *ProgressViolation) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", v.Error())
	fmt.Fprintf(w, "  watchdog-window %d  cycle-budget %d  last-commit-clock %d\n",
		v.WatchdogWindow, v.CycleBudget, v.LastCommitClock)
	fmt.Fprintf(w, "  %-5s %12s %9s %8s %-24s %s\n", "core", "clock", "commits", "attempt", "status", "state")
	for _, c := range v.Cores {
		state := "running"
		switch {
		case c.Unresponsive:
			state = "UNRESPONSIVE"
		case c.Done:
			state = "done"
		}
		status := c.Status
		if status == "" {
			status = "-"
		}
		fmt.Fprintf(w, "  %-5d %12d %9d %8d %-24s %s\n", c.Core, c.Clock, c.Commits, c.Attempt, status, state)
	}
	if len(v.RecentTrace) > 0 {
		fmt.Fprintf(w, "  last %d trace events:\n", len(v.RecentTrace))
		for _, e := range v.RecentTrace {
			fmt.Fprintf(w, "    %s\n", e.Text())
		}
	}
}

// String renders the violation to a string (the harness embeds it in cell
// error messages).
func (v *ProgressViolation) String() string {
	var b strings.Builder
	v.Render(&b)
	return b.String()
}

// CoreFault reports a panic recovered from a core's program coroutine.
type CoreFault struct {
	Core  int
	Clock uint64
	Value string // the panic value, rendered
	Stack string
}

func (f CoreFault) Error() string {
	return fmt.Sprintf("sim: CoreFault: core %d panicked at cycle %d: %s", f.Core, f.Clock, f.Value)
}

// Render writes the fault with its captured stack.
func (f CoreFault) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", f.Error())
	for _, line := range strings.Split(strings.TrimRight(f.Stack, "\n"), "\n") {
		fmt.Fprintf(w, "    %s\n", line)
	}
}

// NoteCommit records a committed transaction for the commit-progress
// watchdog. Called by TM engines from host code (no grant held), so it
// only touches core-local fields; the next grant publishes them. Cheap
// enough to call unconditionally: two plain stores.
func (c *Ctx) NoteCommit() {
	c.commits++
	c.pendingCommit = true
}

// SetStatus records the engine's execution status for watchdog reports
// ("stm"/"irrevocable"/"htm", plus the attempt index). Host-side pending
// write, published at the next grant. label should be a constant string —
// this is hot-path adjacent and must not allocate.
func (c *Ctx) SetStatus(label string, attempt int) {
	c.pendingLabel = label
	c.pendingAttempt = attempt
	c.statusDirty = true
}

// publishProgress copies the pending host-side progress fields into the
// published ones. Must be called while holding the grant.
func (c *Ctx) publishProgress() {
	if c.pendingCommit {
		c.pendingCommit = false
		c.pubCommits = c.commits
		c.m.lastCommit = c.clock
	}
	if c.statusDirty {
		c.statusDirty = false
		c.statLabel = c.pendingLabel
		c.statAttempt = c.pendingAttempt
	}
}

// progressDuties runs at every grant when any watchdog is armed: stop if
// the machine already failed, beat the host-stall heartbeat, publish this
// core's pending progress, then evaluate the simulated-cycle watchdogs.
// All checks key off simulated state only, so trips are deterministic and
// identical under both schedulers and every -j level.
func (c *Ctx) progressDuties() {
	m := c.m
	if m.failed.Load() {
		panic(stopRun{})
	}
	m.beat.Add(1)
	c.publishProgress()
	if w := m.cfg.WatchdogWindow; w > 0 && c.clock > m.lastCommit && c.clock-m.lastCommit > w {
		m.failProgress(c, KindCommitStall)
	}
	if b := m.cfg.CycleBudget; b > 0 && c.clock > b {
		m.failProgress(c, KindCycleBudget)
	}
}

// failProgress records the violation (first trip wins), fails the machine
// and unwinds the tripping core. Runs under the grant.
func (m *Machine) failProgress(c *Ctx, kind string) {
	if m.violation == nil {
		m.violation = m.buildViolation(kind, c.id, c.clock, false)
	}
	m.failed.Store(true)
	panic(stopRun{})
}

// recentTraceTail is how many trace events a violation carries.
const recentTraceTail = 16

// buildViolation snapshots every core. When skipTrip is true (host
// deadlock) the tripping core's volatile fields are not read.
func (m *Machine) buildViolation(kind string, tripCore int, tripClock uint64, skipTrip bool) *ProgressViolation {
	v := &ProgressViolation{
		Kind:            kind,
		TripCore:        tripCore,
		TripClock:       tripClock,
		WatchdogWindow:  m.cfg.WatchdogWindow,
		CycleBudget:     m.cfg.CycleBudget,
		LastCommitClock: m.lastCommit,
	}
	for i, c := range m.cores {
		s := CoreSnapshot{Core: i, Done: m.doneCores[i]}
		if skipTrip && i == tripCore {
			s.Unresponsive = true
		} else {
			s.Clock = c.clock
			s.Commits = c.pubCommits
			s.Status = c.statLabel
			s.Attempt = c.statAttempt
		}
		v.Cores = append(v.Cores, s)
	}
	if m.txnTrace != nil {
		evs := m.txnTrace.Events()
		if len(evs) > recentTraceTail {
			evs = evs[len(evs)-recentTraceTail:]
		}
		v.RecentTrace = evs
	}
	return v
}

// recordFault converts a recovered core panic into a CoreFault and fails
// the machine so sibling cores stop at their next grant.
func (m *Machine) recordFault(c *Ctx, r interface{}) {
	f := CoreFault{
		Core:  c.id,
		Clock: c.clock,
		Value: fmt.Sprint(r),
		Stack: string(debug.Stack()),
	}
	m.faultsMu.Lock()
	m.faults = append(m.faults, f)
	m.faultsMu.Unlock()
	m.failed.Store(true)
}

// driveWatched runs the scheduler loop under the host-deadlock detector
// and reports whether it ran to completion. A program blocked in host code
// never switches back, so the loop gets its own goroutine and Run waits
// for whichever comes first: the loop finishing or the grant heartbeat
// stagnating. On a stall it records the host-deadlock violation, fails the
// machine and abandons the loop. The granted core is marked unresponsive
// and its volatile fields left unread — it may still be running host code.
func (m *Machine) driveWatched(running int, active []bool) bool {
	done, stalled, stop := make(chan struct{}), make(chan struct{}), make(chan struct{})
	defer close(stop)
	go m.stallMonitor(stalled, stop)
	go func() {
		defer close(done)
		m.drive(running, active)
	}()
	select {
	case <-done:
		return true
	case <-stalled:
		if m.violation == nil {
			m.violation = m.buildViolation(KindHostDeadlock, int(m.granted.Load()), 0, true)
		}
		m.failed.Store(true)
		return false
	}
}

// stallMonitor watches the grant heartbeat from its own goroutine and
// closes stalled when it stagnates for the configured host-time window;
// Run closes stop to retire it.
func (m *Machine) stallMonitor(stalled chan<- struct{}, stop <-chan struct{}) {
	interval := m.cfg.StallTimeout / 8
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	last := m.beat.Load()
	lastChange := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			now := m.beat.Load()
			if now != last {
				last = now
				lastChange = time.Now()
				continue
			}
			if time.Since(lastChange) >= m.cfg.StallTimeout {
				close(stalled)
				return
			}
		}
	}
}

// Violation returns the watchdog report, or nil. Stable once Run returns.
func (m *Machine) Violation() *ProgressViolation { return m.violation }

// Faults returns the core-panic reports collected during Run.
func (m *Machine) Faults() []CoreFault {
	m.faultsMu.Lock()
	defer m.faultsMu.Unlock()
	out := make([]CoreFault, len(m.faults))
	copy(out, m.faults)
	return out
}

// CheckHealth returns nil for a clean run, the ProgressViolation if a
// watchdog tripped, or the first CoreFault if a core panicked. Call after
// Run; the harness turns the error into a failed cell instead of a hang
// or a raw panic.
func (m *Machine) CheckHealth() error {
	if m.violation != nil {
		return m.violation
	}
	if fs := m.Faults(); len(fs) > 0 {
		return fs[0]
	}
	return nil
}
