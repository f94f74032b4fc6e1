package native

import (
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/tm"
)

// waitForViolation polls CheckHealth until the watchdog trips or the
// deadline passes.
func waitForViolation(t *testing.T, sys *System, within time.Duration) *NativeProgressViolation {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if err := sys.CheckHealth(); err != nil {
			var v *NativeProgressViolation
			if !errors.As(err, &v) {
				t.Fatalf("CheckHealth returned %T, want *NativeProgressViolation", err)
			}
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("watchdog never tripped")
	return nil
}

// A deliberately wedged stripe-lock holder must trip the stuck-stripe
// detector with the correct stripe index and holder id, and subsequent
// transactions must unwind with the violation as their error instead of
// spinning forever on the dead lock.
func TestStuckStripeLockWatchdog(t *testing.T) {
	m := mem.New()
	addr := m.Alloc(mem.WordSize, mem.LineSize)
	sys := New(m, Config{
		Threads: 2,
		Watchdog: Watchdog{
			StripeHeldFor: 80 * time.Millisecond,
			Poll:          10 * time.Millisecond,
			CommitWindow:  time.Hour, // isolate the stripe detector
		},
	})
	th := sys.Thread(0)
	_ = sys.Thread(1)

	// Wedge the stripe exactly as a stalled holder would leave it: lock
	// word owned by goroutine slot 1, never released.
	ix := sys.stripeIndex(addr)
	sys.stripes[ix].v.Store(uint64(1)<<1 | 1)
	sys.StartWatchdog()
	defer sys.StopWatchdog()

	v := waitForViolation(t, sys, 5*time.Second)
	if v.Kind != "stuck-stripe-lock" {
		t.Fatalf("violation kind %q, want stuck-stripe-lock", v.Kind)
	}
	if v.Stripe != ix {
		t.Fatalf("violation stripe %d, want %d", v.Stripe, ix)
	}
	if v.Holder != 1 {
		t.Fatalf("violation holder %d, want 1", v.Holder)
	}
	if v.Held < 80*time.Millisecond {
		t.Fatalf("held %v shorter than the budget", v.Held)
	}

	// The failed flag must unwind transactions — including ones that would
	// spin on the dead stripe — with the structured violation, no hang.
	errCh := make(chan error, 1)
	go func() {
		errCh <- th.Atomic(func(tx tm.Txn) error {
			tx.Store(addr, 1)
			return nil
		})
	}()
	select {
	case err := <-errCh:
		var got *NativeProgressViolation
		if !errors.As(err, &got) {
			t.Fatalf("Atomic after trip returned %v, want the violation", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Atomic hung after the watchdog tripped")
	}
}

// A thread wedged mid-transaction while the commit sequence sits still
// must trip the commit-stall detector naming that thread.
func TestCommitStallWatchdog(t *testing.T) {
	m := mem.New()
	sys := New(m, Config{
		Threads: 2,
		Watchdog: Watchdog{
			CommitWindow:  80 * time.Millisecond,
			Poll:          10 * time.Millisecond,
			StripeHeldFor: time.Hour, // isolate the commit-window detector
		},
	})
	wedged := sys.Thread(0).(*Thread)
	_ = sys.Thread(1)
	wedged.opSeq.Store(1) // odd: mid-transaction, and it will never advance
	sys.StartWatchdog()
	defer sys.StopWatchdog()

	v := waitForViolation(t, sys, 5*time.Second)
	if v.Kind != "commit-stall" {
		t.Fatalf("violation kind %q, want commit-stall", v.Kind)
	}
	if v.Holder != 0 {
		t.Fatalf("violation holder %d, want 0", v.Holder)
	}
	if v.Stripe != -1 {
		t.Fatalf("commit-stall stripe %d, want -1", v.Stripe)
	}
}

// A healthy contended run under aggressive watchdog settings must never
// trip: commits keep the window moving and stripes turn over in
// microseconds.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	const goroutines = 8
	m := mem.New()
	slot := m.Alloc(mem.WordSize, mem.LineSize)
	sys := New(m, Config{
		Threads: goroutines,
		Watchdog: Watchdog{
			CommitWindow:  500 * time.Millisecond,
			StripeHeldFor: 200 * time.Millisecond,
			Poll:          10 * time.Millisecond,
		},
	})
	for g := 0; g < goroutines; g++ {
		sys.Thread(g)
	}
	sys.StartWatchdog()
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := sys.Thread(id)
			for i := 0; i < 400; i++ {
				if err := th.Atomic(func(tx tm.Txn) error {
					tx.Store(slot, tx.Load(slot)+1)
					return nil
				}); err != nil {
					errs[id] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	sys.StopWatchdog()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", id, err)
		}
	}
	if err := sys.CheckHealth(); err != nil {
		t.Fatalf("healthy run tripped the watchdog: %v", err)
	}
	if got := m.Load(slot); got != 400*goroutines {
		t.Fatalf("slot = %d, want %d", got, 400*goroutines)
	}
}

// Threads beyond GOMAXPROCS must still make progress: the spin loops yield
// to the scheduler (and periodically sleep), so a descheduled stripe
// holder cannot starve the goroutines that are runnable.
func TestOversubscribedThreadsComplete(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)

	const goroutines = 8 // 4× oversubscribed
	m := mem.New()
	slot := m.Alloc(mem.WordSize, mem.LineSize)
	sys := New(m, Config{Threads: goroutines})
	for g := 0; g < goroutines; g++ {
		sys.Thread(g)
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := sys.Thread(id)
			for i := 0; i < 300; i++ {
				if err := th.Atomic(func(tx tm.Txn) error {
					tx.Store(slot, tx.Load(slot)+1)
					return nil
				}); err != nil {
					errs[id] = err
					return
				}
			}
		}(g)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("oversubscribed run hung: spin loops starved the scheduler")
	}
	for id, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", id, err)
		}
	}
	if got := m.Load(slot); got != 300*goroutines {
		t.Fatalf("slot = %d, want %d", got, 300*goroutines)
	}
}

// TestSystemHostBytes holds the host bytes one System allocates: New at
// the default 1<<14 stripes, then a watchdog run in which one stripe stays
// locked until the stuck-stripe detector trips on it, more than three
// poll periods after it first sees the lock. A stripe padded to a cache
// line (1 MiB) or a hold record per stripe (512 KiB) breaks the ceiling.
func TestSystemHostBytes(t *testing.T) {
	const ceiling = 256 << 10
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys := New(mem.New(), Config{
		Threads:  2,
		Watchdog: Watchdog{Poll: time.Millisecond, StripeHeldFor: 3 * time.Millisecond},
	})
	const ix = 5
	sys.stripes[ix].v.Store(uint64(1)<<1 | 1)
	sys.StartWatchdog()
	v := waitForViolation(t, sys, 5*time.Second)
	sys.StopWatchdog()
	runtime.ReadMemStats(&after)
	if v.Stripe != ix {
		t.Fatalf("violation on stripe %d, want %d", v.Stripe, ix)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("System host bytes: %d", got)
	if got > ceiling {
		t.Fatalf("New + watchdog allocated %d B, ceiling %d B", got, ceiling)
	}
}

// heldTable is the stuck-stripe scan as a record per stripe, a zero word
// meaning unlocked: the reference FuzzStripeScan holds scanStripes to.
type heldTable []stripeHold

func (h heldTable) scan(stripes []stripe, now time.Time, budget time.Duration) *NativeProgressViolation {
	for ix := range stripes {
		w := stripes[ix].v.Load()
		if w&1 == 0 {
			h[ix].word = 0
			continue
		}
		if h[ix].word != w {
			h[ix] = stripeHold{word: w, since: now}
			continue
		}
		if d := now.Sub(h[ix].since); d > budget {
			return &NativeProgressViolation{Kind: "stuck-stripe-lock", Holder: int(w >> 1), Stripe: ix, Held: d, Window: budget}
		}
	}
	return nil
}

// checkHolds fails unless holds lists exactly the locked stripes, in
// ascending order, each with the word that locks it.
func checkHolds(t *testing.T, stripes []stripe, holds []stripeHold) {
	t.Helper()
	i := 0
	for ix := range stripes {
		w := stripes[ix].v.Load()
		if w&1 == 0 {
			continue
		}
		if i >= len(holds) || holds[i].ix != ix || holds[i].word != w {
			t.Fatalf("holds %+v miss stripe %d locked by %#x", holds, ix, w)
		}
		i++
	}
	if i != len(holds) {
		t.Fatalf("%d holds for %d locked stripes: %+v", len(holds), i, holds)
	}
}

func lockWordOf(owner int) uint64 { return uint64(owner)<<1 | 1 }

func TestStripeScan(t *testing.T) {
	const budget = 10 * time.Millisecond
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	type step struct {
		at    time.Duration  // since the first scan
		words map[int]uint64 // stored before the scan
	}
	for _, tc := range []struct {
		name  string
		steps []step
		want  *NativeProgressViolation // from the last scan; earlier ones must not trip
	}{
		{
			name:  "same owner past the budget trips",
			steps: []step{{0, map[int]uint64{3: lockWordOf(1)}}, {ms(5), nil}, {ms(11), nil}},
			want:  &NativeProgressViolation{Kind: "stuck-stripe-lock", Holder: 1, Stripe: 3, Held: ms(11), Window: budget},
		},
		{
			name:  "held for exactly the budget does not trip",
			steps: []step{{0, map[int]uint64{3: lockWordOf(1)}}, {ms(10), nil}},
		},
		{
			name: "a new owner restarts the clock",
			steps: []step{
				{0, map[int]uint64{4: lockWordOf(1)}},
				{ms(5), map[int]uint64{4: lockWordOf(2)}},
				{ms(15), nil},
				{ms(16), nil},
			},
			want: &NativeProgressViolation{Kind: "stuck-stripe-lock", Holder: 2, Stripe: 4, Held: ms(11), Window: budget},
		},
		{
			name: "an unlock between scans restarts the clock",
			steps: []step{
				{0, map[int]uint64{4: lockWordOf(1)}},
				{ms(5), map[int]uint64{4: 6}},
				{ms(6), map[int]uint64{4: lockWordOf(1)}},
				{ms(16), nil},
				{ms(17), nil},
			},
			want: &NativeProgressViolation{Kind: "stuck-stripe-lock", Holder: 1, Stripe: 4, Held: ms(11), Window: budget},
		},
		{
			name: "of two stuck stripes the lower is reported",
			steps: []step{
				{0, map[int]uint64{6: lockWordOf(1)}},
				{ms(2), map[int]uint64{2: lockWordOf(3)}},
				{ms(13), nil},
			},
			want: &NativeProgressViolation{Kind: "stuck-stripe-lock", Holder: 3, Stripe: 2, Held: ms(11), Window: budget},
		},
		{
			name: "one hold per locked stripe",
			steps: []step{
				{0, map[int]uint64{0: lockWordOf(1), 1: 8, 3: lockWordOf(2), 7: lockWordOf(1)}},
				{ms(1), map[int]uint64{3: 10}},
				{ms(2), map[int]uint64{0: 12, 5: lockWordOf(0)}},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stripes := make([]stripe, 8)
			t0 := time.Unix(0, 0)
			var holds []stripeHold
			for i, st := range tc.steps {
				for ix, w := range st.words {
					stripes[ix].v.Store(w)
				}
				var v *NativeProgressViolation
				holds, v = scanStripes(nil, stripes, holds, t0.Add(st.at), budget)
				if i < len(tc.steps)-1 || tc.want == nil {
					if v != nil {
						t.Fatalf("scan at %v tripped: %v", st.at, v)
					}
					checkHolds(t, stripes, holds)
					continue
				}
				if v == nil || *v != *tc.want {
					t.Fatalf("scan at %v: violation %+v, want %+v", st.at, v, tc.want)
				}
			}
		})
	}
}
