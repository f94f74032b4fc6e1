package native

import (
	"fmt"
	"time"
)

// The host watchdog plane is the native analogue of the simulator's
// progress monitors (internal/sim/progress.go), restated in wall-clock
// terms: a commit-progress window over the global commit sequence, and a
// stuck-stripe-lock detector that scans the versioned-write-lock table
// for a lock word that has not changed for longer than any healthy commit
// section could hold it. A trip publishes a structured
// NativeProgressViolation and raises the system's failed flag; spinning
// and waiting threads observe the flag and unwind their transactions with
// the violation as the error, so a wedged run terminates with a per-cell
// error (exit 1) instead of hanging the process.

// Watchdog configures the host watchdog plane. Zero values select the
// defaults noted on each field; the bounded wake deadline is always
// active, the scanning goroutine only once StartWatchdog is called.
type Watchdog struct {
	// CommitWindow is how long the global commit sequence may sit still
	// while some thread is mid-transaction before the plane declares a
	// commit stall. 0 means 10s.
	CommitWindow time.Duration
	// StripeHeldFor is how long one stripe may hold the same write-lock
	// word before its holder is declared stuck. Healthy commit sections
	// hold stripes for microseconds. 0 means 2s.
	StripeHeldFor time.Duration
	// WakeDeadline bounds every waitForChange block: a waiter that sees no
	// commit notification within the deadline re-validates its watch set
	// and re-arms, so a lost wakeup degrades to a counted re-check
	// (telemetry wakeup_timeouts) instead of a permanent hang. 0 means
	// 10ms.
	WakeDeadline time.Duration
	// Poll is the scanner's sampling period. 0 means StripeHeldFor/8.
	Poll time.Duration
}

func (w Watchdog) withDefaults() Watchdog {
	if w.CommitWindow == 0 {
		w.CommitWindow = 10 * time.Second
	}
	if w.StripeHeldFor == 0 {
		w.StripeHeldFor = 2 * time.Second
	}
	if w.WakeDeadline == 0 {
		w.WakeDeadline = 10 * time.Millisecond
	}
	if w.Poll == 0 {
		w.Poll = w.StripeHeldFor / 8
	}
	return w
}

// NativeProgressViolation is a structured host-watchdog trip. It
// implements error and is what a wedged run's Atomic calls return, what
// CheckHealth reports, and what the harness surfaces as the cell error.
type NativeProgressViolation struct {
	Kind      string        // "stuck-stripe-lock" | "commit-stall"
	Holder    int           // goroutine slot holding the stuck lock, or stuck mid-txn (-1 if unknown)
	Stripe    int           // stuck stripe index (-1 for commit-stall)
	Held      time.Duration // how long the condition persisted when tripped
	CommitSeq uint64        // global commit sequence at the trip
	Window    time.Duration // the budget that was exceeded
}

func (v *NativeProgressViolation) Error() string {
	switch v.Kind {
	case "stuck-stripe-lock":
		return fmt.Sprintf("native: NativeProgressViolation %s: stripe %d held by goroutine %d for %v (budget %v, commit seq %d)",
			v.Kind, v.Stripe, v.Holder, v.Held.Round(time.Millisecond), v.Window, v.CommitSeq)
	default:
		who := "no thread"
		if v.Holder >= 0 {
			who = fmt.Sprintf("goroutine %d", v.Holder)
		}
		return fmt.Sprintf("native: NativeProgressViolation %s: no commit for %v with %s stuck mid-transaction (budget %v, commit seq %d)",
			v.Kind, v.Held.Round(time.Millisecond), who, v.Window, v.CommitSeq)
	}
}

// CheckHealth returns the first watchdog violation observed, or nil.
func (s *System) CheckHealth() error {
	if v := s.failed.Load(); v != nil {
		return v
	}
	return nil
}

// trip publishes the first violation (later trips keep the original) and
// wakes every retry waiter so blocked threads observe the failed flag.
func (s *System) trip(v *NativeProgressViolation) {
	if s.failed.CompareAndSwap(nil, v) {
		s.notifyCommit()
	}
}

// StartWatchdog launches the scanning goroutine. Idempotent per system;
// call StopWatchdog when the run's worker goroutines have exited.
func (s *System) StartWatchdog() {
	if s.wdStop != nil {
		return
	}
	s.wdStop = make(chan struct{})
	s.wdDone = make(chan struct{})
	go s.watchdogLoop(s.wdStop, s.wdDone)
}

// StopWatchdog stops the scanner and waits for it to exit. The failed
// flag, if raised, stays raised: CheckHealth after Stop still reports.
func (s *System) StopWatchdog() {
	if s.wdStop == nil {
		return
	}
	close(s.wdStop)
	<-s.wdDone
	s.wdStop, s.wdDone = nil, nil
}

// stripeHold tracks one stripe's lock word across scans.
type stripeHold struct {
	word  uint64
	since time.Time
}

func (s *System) watchdogLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	wd := s.cfg.Watchdog
	held := make([]stripeHold, len(s.stripes))
	lastSeq := s.commitSeq()
	windowStart := time.Now()
	opSnap := make([]uint64, len(s.threads))
	s.sampleOpSeqs(opSnap)
	ticker := time.NewTicker(wd.Poll)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		now := time.Now()

		// Stuck-stripe-lock scan: a lock word (odd) unchanged across
		// scans for longer than the budget means its holder is wedged
		// mid-commit — record who and where.
		for ix := range s.stripes {
			w := s.stripes[ix].v.Load()
			if w&1 == 0 {
				held[ix].word = 0
				continue
			}
			if held[ix].word != w {
				held[ix] = stripeHold{word: w, since: now}
				continue
			}
			if d := now.Sub(held[ix].since); d > wd.StripeHeldFor {
				s.trip(&NativeProgressViolation{
					Kind:      "stuck-stripe-lock",
					Holder:    int(w >> 1),
					Stripe:    ix,
					Held:      d,
					CommitSeq: s.commitSeq(),
					Window:    wd.StripeHeldFor,
				})
				return
			}
		}

		// Commit-progress window: the commit sequence sitting still is
		// only a stall if some thread has been inside one transaction the
		// whole window (its opSeq odd and unchanged); an idle system
		// resets the window instead of tripping.
		if seq := s.commitSeq(); seq != lastSeq {
			lastSeq = seq
			windowStart = now
			s.sampleOpSeqs(opSnap)
		} else if now.Sub(windowStart) > wd.CommitWindow {
			stuck := -1
			for id, t := range s.threads {
				if t == nil {
					continue
				}
				if cur := t.opSeq.Load(); cur&1 == 1 && cur == opSnap[id] {
					stuck = id
					break
				}
			}
			if stuck >= 0 {
				s.trip(&NativeProgressViolation{
					Kind:      "commit-stall",
					Holder:    stuck,
					Stripe:    -1,
					Held:      now.Sub(windowStart),
					CommitSeq: lastSeq,
					Window:    wd.CommitWindow,
				})
				return
			}
			windowStart = now
			s.sampleOpSeqs(opSnap)
		}
	}
}

// commitSeq is the global commit sequence, the sum of the threads' counts;
// each only grows, so it changes iff someone committed.
func (s *System) commitSeq() (seq uint64) {
	for _, t := range s.threads {
		if t != nil {
			seq += t.commits.Load()
		}
	}
	return seq
}

func (s *System) sampleOpSeqs(into []uint64) {
	for id, t := range s.threads {
		if t != nil {
			into[id] = t.opSeq.Load()
		} else {
			into[id] = 0
		}
	}
}
