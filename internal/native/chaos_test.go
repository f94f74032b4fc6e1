package native

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

func TestChaosSpecParseRoundTrip(t *testing.T) {
	for _, text := range []string{
		"off",
		"stall=200,stallns=1000,preempt=150,abort=100,wakedelay=50,wakedelayns=500,seed=9",
		"abort=40,seed=3",
	} {
		spec, err := ParseChaosSpec(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		again, err := ParseChaosSpec(spec.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", spec, err)
		}
		if again != spec {
			t.Fatalf("round trip of %q changed the spec: %+v vs %+v", text, spec, again)
		}
	}
	if spec, err := ParseChaosSpec(""); err != nil || spec.Enabled() {
		t.Fatalf("empty spec: %+v, %v", spec, err)
	}
	for _, bad := range []string{"stall", "stall=x", "bogus=1"} {
		if _, err := ParseChaosSpec(bad); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}

// chaosDiffRun drives the content-commutative differential mix on
// `threads` goroutines with the given chaos spec and verifies the final
// state against the sequential oracle.
func chaosDiffRun(t *testing.T, threads, ops int, spec ChaosSpec) (*System, *ChaosReport) {
	t.Helper()
	m := mem.New()
	mk := func(m2 *mem.Memory) workloads.DataStructure { return workloads.NewHashtable(m2, 256) }
	ds := mk(m)
	ds.Populate(m, workloads.NewRand(7))
	sys := New(m, Config{
		TM:         tm.Config{Progress: tm.Progress{RetryBudget: 4}},
		Threads:    threads,
		ArenaBytes: 1 << 22,
		Chaos:      spec,
	})
	for g := 0; g < threads; g++ {
		sys.Thread(g)
	}
	log := workloads.NewOpLog()
	cfg := workloads.DriverConfig{Ops: ops, UpdatePercent: 50, Seed: 7}
	var wg sync.WaitGroup
	errs := make([]error, threads)
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs[id] = workloads.RunDiffThread(sys.Thread(id), ds, cfg, log)
		}(g)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", id, err)
		}
	}
	if _, err := workloads.VerifyDiffOracle(ds, m, mk, 7, log); err != nil {
		t.Fatal(err)
	}
	return sys, sys.ChaosReport()
}

// The planned schedule — and therefore its hash — is a pure function of
// (seed, thread id, per-thread transaction index). Two runs of the same
// configuration must produce identical reports of the plan even though
// the host scheduler interleaves the goroutines differently (fired counts
// depend on the path each attempt takes, so only planned fields and the
// hash carry the determinism claim).
func TestChaosScheduleHashDeterministic(t *testing.T) {
	spec := ChaosSpec{Stall: 20, StallNS: 1, Preempt: 15, Abort: 10, WakeDelay: 25, WakeDelayNS: 1, Seed: 3}
	_, a := chaosDiffRun(t, 4, 120, spec)
	_, b := chaosDiffRun(t, 4, 120, spec)
	if a == nil || b == nil {
		t.Fatal("chaos armed but no report")
	}
	if a.ScheduleHash != b.ScheduleHash {
		t.Fatalf("schedule hash diverged across identical runs: %016x vs %016x", a.ScheduleHash, b.ScheduleHash)
	}
	if a.ScheduleLen != b.ScheduleLen {
		t.Fatalf("schedule length diverged: %d vs %d", a.ScheduleLen, b.ScheduleLen)
	}
	if !reflect.DeepEqual(a.Planned, b.Planned) {
		t.Fatalf("planned counts diverged:\n%v\n%v", a.Planned, b.Planned)
	}
	if a.ScheduleLen == 0 {
		t.Fatal("chaos run planned no injections; the test exercised nothing")
	}
}

// A seed change must actually move the schedule — otherwise the hash is a
// constant and the determinism assertion above is vacuous.
func TestChaosScheduleHashVariesWithSeed(t *testing.T) {
	specA := ChaosSpec{Abort: 10, Stall: 20, StallNS: 1, Seed: 3}
	specB := specA
	specB.Seed = 4
	_, a := chaosDiffRun(t, 2, 100, specA)
	_, b := chaosDiffRun(t, 2, 100, specB)
	if a.ScheduleHash == b.ScheduleHash {
		t.Fatalf("different seeds produced the same schedule hash %016x", a.ScheduleHash)
	}
}

// Injected spurious aborts must be survivable: every transaction still
// commits (the attempt retries), the injection is counted, and the final
// state passes the oracle (chaosDiffRun verifies it).
func TestChaosSpuriousAborts(t *testing.T) {
	sys, rep := chaosDiffRun(t, 2, 200, ChaosSpec{Abort: 5, Seed: 1})
	if rep.Planned["abort"] == 0 {
		t.Fatal("no spurious aborts planned")
	}
	if rep.Fired["abort"] == 0 {
		t.Fatal("no spurious aborts fired — the commit path never consumed a plan")
	}
	if n := sys.Stats().Count(telemetry.ChaosInjected); n == 0 {
		t.Fatal("chaos_injected telemetry counter is zero despite fired injections")
	}
}

// A retry waiter whose wakeup never arrives must not hang: the bounded
// waitForChange deadline degrades the lost wakeup to a counted
// re-validation. A consumer waits on an empty slot for ~50ms of silence
// before the producer acts, so with a 1ms deadline the waiter must both
// survive and count timeouts.
func TestWakeupTimeoutBoundsLostWakeup(t *testing.T) {
	m := mem.New()
	slot := m.Alloc(mem.WordSize, mem.LineSize)
	sys := New(m, Config{
		Threads:  2,
		Watchdog: Watchdog{WakeDeadline: time.Millisecond},
	})
	consumer := sys.Thread(0)
	producer := sys.Thread(1)

	done := make(chan error, 1)
	go func() {
		done <- consumer.Atomic(func(tx tm.Txn) error {
			v := tx.Load(slot)
			if v == 0 {
				tx.Retry()
			}
			tx.Store(slot, v-1)
			return nil
		})
	}()

	time.Sleep(50 * time.Millisecond) // silence: every wakeup in this window is "lost"
	if err := producer.Atomic(func(tx tm.Txn) error { tx.Store(slot, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("consumer failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("consumer hung despite the bounded wake deadline")
	}
	if got := m.Load(slot); got != 0 {
		t.Fatalf("slot = %d, want 0", got)
	}
	if n := sys.Stats().Count(telemetry.WakeupTimeouts); n == 0 {
		t.Fatal("wakeup_timeouts is zero after 50ms of waiting on a 1ms deadline")
	}
}

// The lost-wakeup regression soak: a matched-totals counter queue (every
// produced unit is consumed exactly once) under delayed-wakeup chaos and a
// tight wake deadline. The run must terminate with the slot drained — a
// lost or mis-delivered wakeup would strand a consumer forever.
func TestLostWakeupSoak(t *testing.T) {
	const (
		pairs  = 4
		rounds = 150
	)
	m := mem.New()
	slot := m.Alloc(mem.WordSize, mem.LineSize)
	sys := New(m, Config{
		Threads:  2 * pairs,
		Chaos:    ChaosSpec{WakeDelay: 3, WakeDelayNS: 1000, Seed: 5},
		Watchdog: Watchdog{WakeDeadline: time.Millisecond},
	})
	for g := 0; g < 2*pairs; g++ {
		sys.Thread(g)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2*pairs)
	for g := 0; g < pairs; g++ {
		wg.Add(2)
		go func(id int) { // producer
			defer wg.Done()
			th := sys.Thread(id)
			for i := 0; i < rounds; i++ {
				if err := th.Atomic(func(tx tm.Txn) error {
					tx.Store(slot, tx.Load(slot)+1)
					return nil
				}); err != nil {
					errs[id] = err
					return
				}
			}
		}(g)
		go func(id int) { // consumer
			defer wg.Done()
			th := sys.Thread(id)
			for i := 0; i < rounds; i++ {
				if err := th.Atomic(func(tx tm.Txn) error {
					v := tx.Load(slot)
					if v == 0 {
						tx.Retry()
					}
					tx.Store(slot, v-1)
					return nil
				}); err != nil {
					errs[id] = err
					return
				}
			}
		}(pairs + g)
	}
	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(2 * time.Minute):
		t.Fatal("soak hung: a consumer lost its wakeup past the bounded deadline")
	}
	for id, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", id, err)
		}
	}
	if got := m.Load(slot); got != 0 {
		t.Fatalf("matched-totals queue left slot = %d, want 0", got)
	}
	t.Logf("soak: %d wakeup timeouts, %d injections",
		sys.Stats().Count(telemetry.WakeupTimeouts), sys.Stats().Count(telemetry.ChaosInjected))
}
