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
// core executes at any time — core programs are coroutines that hand the
// grant to one another — so machine state needs no synchronisation among
// cores; the atomics and the mutex below exist only for the host stall
// detector, whose Run goroutine gives up on a machine that may still be
// running. Host code *between* grants runs outside the (clock, id) grant
// order (after giving a lease up, a program runs on to its next acquire
// before it hands the grant on), so NoteCommit and SetStatus take the key
// of the core's next operation: they publish at once when that key is
// below the watchdog threshold, which every check still to come is keyed
// at or past, and otherwise at the core's next grant (grantDuties).
//
// The simulated-cycle watchdogs are one clock threshold, Machine.checkAt:
// the budget, or the window past the latest published commit, whichever
// is lower. Below it no grant can trip, so the lease path checks nothing
// there; a lease's horizon stops at it, and nothing runs ahead of its
// grant at or past it (Ctx.mayRunAhead). A commit published early raises
// the threshold only past keys it is itself below, so every check that
// does run sees exactly the commits keyed before it.

// stopRun is the internal panic value that unwinds a core's program after
// the machine has failed (watchdog trip or a sibling core's fault). It is
// raised at a core's next operation, recovered by the Run epilogue, and must be
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
	Commits uint64 // commits published before the trip's key
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
// watchdog. Called by TM engines from host code, keyed at the core's next
// operation: the commit's own clock, once the operations before it have
// run. Cheap enough to call unconditionally.
func (c *Ctx) NoteCommit() {
	c.commits++
	c.pendingCommit = true
	c.note()
}

// SetStatus records the engine's execution status for watchdog reports
// ("stm"/"irrevocable"/"htm", plus the attempt index), keyed like
// NoteCommit. label should be a constant string — this is hot-path
// adjacent and must not allocate.
func (c *Ctx) SetStatus(label string, attempt int) {
	c.pendingLabel = label
	c.pendingAttempt = int32(attempt)
	c.statusDirty = true
	c.note()
}

// note publishes the progress just noted if its key, that of this core's
// next operation, is below the watchdog threshold; otherwise it stays
// pending until the core's next grant. Behind posted operations the key's
// clock is known only when they retire, so the commit's clock waits for
// them (Ctx.settleCommit) while its count and the status publish now.
func (c *Ctx) note() {
	if c.postLen == 0 {
		if c.clock < c.m.checkAt {
			c.publish()
		}
		return
	}
	if c.postBound < c.m.checkAt {
		if c.pendingCommit {
			c.pendingCommit = false
			c.pubCommits = c.commits
			c.commitAt = c.postLen
		}
		c.publishStatus()
	}
}

// publish copies the pending progress into the published fields, the
// commit at this core's current clock.
func (c *Ctx) publish() {
	if c.pendingCommit {
		c.pendingCommit = false
		c.pubCommits = c.commits
		c.m.noteCommitClock(c.clock)
		if c.leased && !c.m.cfg.ReferenceScheduler {
			c.horizon = c.m.leaseHorizon() // the threshold may have risen
		}
	}
	c.publishStatus()
}

func (c *Ctx) publishStatus() {
	if c.statusDirty {
		c.statusDirty = false
		c.statLabel = c.pendingLabel
		c.statAttempt = c.pendingAttempt
	}
}

// noteCommitClock publishes a commit at clock and, with the window armed,
// moves the watchdog threshold past it.
func (m *Machine) noteCommitClock(clock uint64) {
	m.lastCommit = max(m.lastCommit, clock)
	if m.cfg.WatchdogWindow > 0 {
		m.setCheckAt(m.lastCommit)
	}
	if m.cfg.StallTimeout > 0 {
		m.beat.Add(1)
	}
}

// stallBeat bounds the simulated cycles between two threshold checks of a
// machine whose stall monitor has no commit-progress window to end a
// silent stretch: each check beats the heartbeat, so a core that runs on
// under one lease without committing is not taken for a host deadlock.
const stallBeat = 1 << 16

// setCheckAt recomputes the watchdog threshold from the clock a silent
// stretch runs from — the latest published commit's with the window
// armed, the last threshold check's otherwise: the least clock at which a
// grant trips the budget or the window or, with only the stall monitor
// watching, beats; ^0 with none armed.
func (m *Machine) setCheckAt(from uint64) {
	m.checkAt = ^uint64(0)
	if b := m.cfg.CycleBudget; b > 0 {
		m.checkAt = b + 1
	}
	if w := m.cfg.WatchdogWindow; w > 0 {
		m.checkAt = min(m.checkAt, from+w+1)
	} else if m.cfg.StallTimeout > 0 {
		m.checkAt = min(m.checkAt, from+stallBeat)
	}
}

// checkProgress evaluates the simulated-cycle watchdogs for this core's
// grant, whose clock has reached the threshold.
func (c *Ctx) checkProgress() {
	m := c.m
	if m.cfg.StallTimeout > 0 {
		m.beat.Add(1)
	}
	if w := m.cfg.WatchdogWindow; w > 0 && c.clock > m.lastCommit && c.clock-m.lastCommit > w {
		m.failProgress(c, KindCommitStall)
	}
	if b := m.cfg.CycleBudget; b > 0 && c.clock > b {
		m.failProgress(c, KindCycleBudget)
	}
	if m.cfg.WatchdogWindow == 0 {
		m.setCheckAt(c.clock) // the next beat
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

// stopIfFailed unwinds this core if the machine has failed: the one stop
// rule, run wherever a core resumes its program holding the grant — at its
// grant's duties (grantDuties), and where a lease reaches it outside an
// operation, at its program's start and in Clock, whose next operation
// would run inline where nothing checks. A parked core's due operations
// are dropped instead (dueOp), so each core stops at its next operation.
func (c *Ctx) stopIfFailed() {
	if c.m.failed.Load() {
		panic(stopRun{})
	}
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
		s := CoreSnapshot{Core: i, Done: c.done}
		if skipTrip && i == tripCore {
			s.Unresponsive = true
		} else {
			s.Clock = c.clock
			s.Commits = c.pubCommits
			s.Status = c.statLabel
			s.Attempt = int(c.statAttempt)
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
// the machine so sibling cores stop at their next operation.
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

// driveWatched runs the machine under the host-deadlock detector and
// reports whether it ran to completion. A program blocked in host code
// never hands the grant on, so the machine gets its own goroutine and Run
// waits for whichever comes first: the last program returning or the grant
// heartbeat stagnating. On a stall it records the host-deadlock violation,
// fails the machine and abandons it. The last leased core is marked
// unresponsive and its volatile fields left unread — it may still be
// running host code.
func (m *Machine) driveWatched() bool {
	done, stalled, stop := make(chan struct{}), make(chan struct{}), make(chan struct{})
	defer close(stop)
	go m.stallMonitor(stalled, stop)
	go func() {
		defer close(done)
		m.handoff(nil)
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

// stallMonitor watches the machine's heartbeat from its own goroutine and
// closes stalled when it stagnates for the configured host-time window;
// Run closes stop to retire it. The heartbeat moves where the lease path
// already passes — each lease, each published commit, each threshold
// check — so a core that runs on under one lease without committing (a
// single-core zombie loop, say) beats at the threshold: the window's, or
// with no window stallBeat cycles on (setCheckAt), long before a
// realistic timeout.
func (m *Machine) stallMonitor(stalled chan<- struct{}, stop <-chan struct{}) {
	interval := max(m.cfg.StallTimeout/8, time.Millisecond)
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
