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
// section could hold it, keeping state only for the stripes locked at the
// last scan. A trip publishes a structured
// NativeProgressViolation and raises the system's failed flag; spinning
// and waiting threads observe the flag and unwind their transactions with
// the violation as the error, so a wedged run terminates with a per-cell
// error (exit 1) instead of hanging the process.

// Watchdog configures the host watchdog plane. Zero values select the
// defaults noted on each field, and New rejects negative ones; the bounded
// wake deadline is always active, the scanning goroutine only once
// StartWatchdog is called.
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

// withDefaults fills in the zero fields. It panics, naming the field, on a
// negative duration or a Poll that comes out zero (StripeHeldFor below
// 8ns): the scanner's time.NewTicker would otherwise panic on its own
// goroutine, out of the caller's reach.
func (w Watchdog) withDefaults() Watchdog {
	for _, f := range []struct {
		name string
		d    time.Duration
	}{
		{"CommitWindow", w.CommitWindow},
		{"StripeHeldFor", w.StripeHeldFor},
		{"WakeDeadline", w.WakeDeadline},
		{"Poll", w.Poll},
	} {
		if f.d < 0 {
			panic(fmt.Sprintf("native: Config.Watchdog.%s %v is negative", f.name, f.d))
		}
	}
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
		if w.Poll == 0 {
			panic(fmt.Sprintf("native: Config.Watchdog.StripeHeldFor %v is below 8ns, so the default Poll (StripeHeldFor/8) is zero", w.StripeHeldFor))
		}
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

// stripeHold is a stripe that was locked at the last scan: its index, the
// lock word seen, and when that word was first seen there.
type stripeHold struct {
	ix    int
	word  uint64
	since time.Time
}

// scanStripes is one pass of the stuck-stripe detector. prev holds the
// stripes locked at the last scan, ascending; the result, appended to dst,
// holds those locked now, ascending, and a stripe keeps its since only if
// the same word held it last time (an unlock or a new owner in between
// restarts the clock). The lowest stripe whose word has held it longer
// than budget is returned as a violation without CommitSeq.
func scanStripes(dst []stripeHold, stripes []stripe, prev []stripeHold, now time.Time, budget time.Duration) ([]stripeHold, *NativeProgressViolation) {
	for ix := range stripes {
		w := stripes[ix].v.Load()
		if w&1 == 0 {
			continue
		}
		for len(prev) > 0 && prev[0].ix < ix {
			prev = prev[1:]
		}
		h := stripeHold{ix: ix, word: w, since: now}
		if len(prev) > 0 && prev[0].ix == ix && prev[0].word == w {
			h.since = prev[0].since
			if d := now.Sub(h.since); d > budget {
				return dst, &NativeProgressViolation{
					Kind:   "stuck-stripe-lock",
					Holder: int(w >> 1),
					Stripe: ix,
					Held:   d,
					Window: budget,
				}
			}
		}
		dst = append(dst, h)
	}
	return dst, nil
}

func (s *System) watchdogLoop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	wd := s.cfg.Watchdog
	// Two scans' holds on the goroutine's stack: a scan allocates only
	// when more stripes are locked at once than holdBuf has room for.
	var holdBuf [2][16]stripeHold
	holds, spare := holdBuf[0][:0], holdBuf[1][:0]
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
		// mid-commit.
		next, v := scanStripes(spare[:0], s.stripes, holds, now, wd.StripeHeldFor)
		if v != nil {
			v.CommitSeq = s.commitSeq()
			s.trip(v)
			return
		}
		holds, spare = next, holds

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
