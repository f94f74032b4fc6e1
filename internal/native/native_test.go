package native

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

func newSys(t *testing.T, threads int, cfg tm.Config) (*System, *mem.Memory, uint64) {
	t.Helper()
	m := mem.New()
	words := m.Alloc(64*mem.WordSize, mem.LineSize)
	sys := New(m, Config{TM: cfg, Threads: threads, ArenaBytes: 1 << 20, Stripes: 1 << 10})
	return sys, m, words
}

func TestLoadStoreCommit(t *testing.T) {
	sys, m, words := newSys(t, 1, tm.Config{})
	th := sys.Thread(0)
	err := th.Atomic(func(tx tm.Txn) error {
		tx.Store(words, 41)
		tx.Store(words, tx.Load(words)+1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Load(words); got != 42 {
		t.Fatalf("committed value = %d, want 42", got)
	}
	if th.Stamp() == 0 || th.Stamp()%2 != 0 {
		t.Fatalf("writer stamp = %d, want a positive even version", th.Stamp())
	}
	if c := sys.Stats().Commits(); c != 1 {
		t.Fatalf("commits = %d, want 1", c)
	}
}

func TestReadOnlyStampIsSnapshot(t *testing.T) {
	sys, _, words := newSys(t, 1, tm.Config{})
	th := sys.Thread(0)
	if err := th.Atomic(func(tx tm.Txn) error { tx.Store(words, 7); return nil }); err != nil {
		t.Fatal(err)
	}
	wv := th.Stamp()
	var got uint64
	if err := th.Atomic(func(tx tm.Txn) error { got = tx.Load(words); return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("read %d, want 7", got)
	}
	if th.Stamp() < wv {
		t.Fatalf("read-only stamp %d precedes the write it observed (%d)", th.Stamp(), wv)
	}
}

func TestBodyErrorRollsBack(t *testing.T) {
	sys, m, words := newSys(t, 1, tm.Config{})
	th := sys.Thread(0)
	boom := errors.New("boom")
	err := th.Atomic(func(tx tm.Txn) error {
		tx.Store(words, 99)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := m.Load(words); got != 0 {
		t.Fatalf("aborted store leaked: %d", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	const threads, incs = 8, 500
	sys, m, words := newSys(t, threads, tm.Config{})
	var wg sync.WaitGroup
	errs := make([]error, threads)
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := sys.Thread(id)
			for n := 0; n < incs; n++ {
				errs[id] = th.Atomic(func(tx tm.Txn) error {
					tx.Store(words, tx.Load(words)+1)
					return nil
				})
				if errs[id] != nil {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("thread %d: %v", id, err)
		}
	}
	if got := m.Load(words); got != threads*incs {
		t.Fatalf("counter = %d, want %d", got, threads*incs)
	}
	if c := sys.Stats().Commits(); c != threads*incs {
		t.Fatalf("commits = %d, want %d", c, threads*incs)
	}
}

func TestRetryWakeup(t *testing.T) {
	sys, _, words := newSys(t, 2, tm.Config{})
	flag, slot := words, words+8
	done := make(chan uint64, 1)
	waiting := make(chan struct{}, 1)
	go func() {
		th := sys.Thread(0)
		var got uint64
		err := th.Atomic(func(tx tm.Txn) error {
			if tx.Load(flag) == 0 {
				select {
				case waiting <- struct{}{}:
				default:
				}
				tx.Retry()
			}
			got = tx.Load(slot)
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- got
	}()
	// Only produce once the consumer has observed flag==0 and gone into a
	// retry wait, so the retry counter below is deterministic.
	<-waiting
	th := sys.Thread(1)
	if err := th.Atomic(func(tx tm.Txn) error {
		tx.Store(slot, 1234)
		tx.Store(flag, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := <-done; got != 1234 {
		t.Fatalf("consumer read %d, want 1234", got)
	}
	if r := sys.Stats().Block(0).Count(telemetry.Retries); r == 0 {
		t.Fatal("consumer never counted a retry wait")
	}
}

func TestOrElseFallsThrough(t *testing.T) {
	sys, _, words := newSys(t, 1, tm.Config{})
	th := sys.Thread(0)
	var path string
	err := th.Atomic(func(tx tm.Txn) error {
		return tx.OrElse(
			func(ax tm.Txn) error {
				if ax.Load(words) == 0 {
					ax.Retry()
				}
				path = "first"
				return nil
			},
			func(bx tm.Txn) error {
				path = "second"
				bx.Store(words+8, 5)
				return nil
			},
		)
	})
	if err != nil || path != "second" {
		t.Fatalf("err=%v path=%q, want nil/second", err, path)
	}
}

// The ladder, driven deterministically: with a budget of 2 the first strike
// is a chaos-plane spurious abort at a commit point (stripes locked, then
// restored), the second an injected conflict abort in the body; the third
// attempt must run irrevocably and commit. No host contention is needed, so
// nothing here can skip.
func TestEscalationLadder(t *testing.T) {
	m := mem.New()
	word := m.Alloc(mem.WordSize, mem.LineSize)
	sys := New(m, Config{
		TM:      tm.Config{Progress: tm.Progress{RetryBudget: 2}},
		Threads: 1,
		Chaos:   ChaosSpec{Abort: 1, Seed: 1}, // one spurious abort per transaction
	})
	th := sys.Thread(0).(*Thread)
	attempts := 0
	if err := th.Atomic(func(tx tm.Txn) error {
		attempts++
		if attempts == 2 {
			th.AbortConflictForTest()
		}
		if th.Irrevocable() != (attempts == 3) {
			t.Errorf("attempt %d: irrevocable = %v", attempts, th.Irrevocable())
		}
		tx.Store(word, tx.Load(word)+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if th.Irrevocable() {
		t.Error("serial lock still held after the terminal commit")
	}
	if got := m.Load(word); got != 1 {
		t.Fatalf("counter = %d, want 1", got)
	}
	tel := sys.Stats()
	if esc, ent := tel.Count(telemetry.Escalations), tel.Count(telemetry.IrrevocableEntries); esc != 1 || ent != 1 {
		t.Fatalf("escalations=%d irrevocable entries=%d, want 1/1", esc, ent)
	}
	if fired := sys.ChaosReport().Fired["abort"]; fired != 1 {
		t.Fatalf("chaos aborts fired = %d, want 1", fired)
	}
	if got := sys.Stats().Commits(); got != 1 {
		t.Fatalf("commits = %d, want 1", got)
	}
	// The ladder is free again: an ordinary transaction commits revocably.
	if err := th.Atomic(func(tx tm.Txn) error { _ = tx.Load(word); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestIrrevocableNestedRollback(t *testing.T) {
	// AtomicSerialized escalates on the first attempt when the ladder is
	// armed, so the body — and its nested rollback — run on the eager
	// undo-logged irrevocable path.
	cfg := tm.Config{Progress: tm.Progress{RetryBudget: 1}}
	sys, m, words := newSys(t, 1, cfg)
	th := sys.Thread(0).(*Thread)
	boom := errors.New("inner")
	err := th.AtomicSerialized(func(tx tm.Txn) error {
		tx.Store(words, 1)
		if inner := tx.Atomic(func(nx tm.Txn) error {
			nx.Store(words, 2)
			return boom
		}); !errors.Is(inner, boom) {
			return fmt.Errorf("nested err = %v", inner)
		}
		if v := tx.Load(words); v != 1 {
			return fmt.Errorf("after nested rollback Load = %d, want 1", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Load(words); got != 1 {
		t.Fatalf("committed %d, want 1", got)
	}
	if sys.Stats().Count(telemetry.IrrevocableEntries) != 1 {
		t.Fatal("irrevocable path did not run")
	}
}

func TestAllocStoreInitPublish(t *testing.T) {
	sys, _, words := newSys(t, 1, tm.Config{})
	th := sys.Thread(0)
	err := th.Atomic(func(tx tm.Txn) error {
		node := tx.Alloc(16, 8)
		tx.StoreInit(node, 77)
		tx.StoreInit(node+8, 88)
		tx.Store(words, node) // publish
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var v1, v2 uint64
	if err := th.Atomic(func(tx tm.Txn) error {
		node := tx.Load(words)
		v1, v2 = tx.Load(node), tx.Load(node+8)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if v1 != 77 || v2 != 88 {
		t.Fatalf("published object reads %d/%d, want 77/88", v1, v2)
	}
}

func TestStaleSnapshotAborts(t *testing.T) {
	// Drive the TL2 read-path invariant directly: a transaction whose rv
	// predates a commit to a stripe it then reads must abort (and the
	// attempt loop then commits on re-execution with a fresh rv).
	sys, _, words := newSys(t, 2, tm.Config{})
	reader := sys.Thread(0)
	writer := sys.Thread(1)
	first := true
	err := reader.Atomic(func(tx tm.Txn) error {
		if first {
			first = false
			// Commit a write from another thread after rv was sampled.
			if err := writer.Atomic(func(wx tm.Txn) error {
				wx.Store(words, 5)
				return nil
			}); err != nil {
				return err
			}
		}
		tx.Load(words) // stale rv on the first attempt -> AbortValidation
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if a := sys.Stats().Aborts(telemetry.AbortValidation); a != 1 {
		t.Fatalf("validation aborts = %d, want exactly 1 (first attempt)", a)
	}
	if c := sys.Stats().Block(0).Count(telemetry.Commits); c != 1 {
		t.Fatalf("reader commits = %d, want 1", c)
	}
}

func TestCommitRevalidationAbortsOnInterleavedWrite(t *testing.T) {
	// A writer that read a word, then lost an interleaved commit to that
	// word, must fail commit-time revalidation.
	sys, m, words := newSys(t, 2, tm.Config{})
	a, b := words, words+uint64(mem.LineSize) // distinct stripes
	tx1 := sys.Thread(0)
	tx2 := sys.Thread(1)
	attempts := 0
	err := tx1.Atomic(func(tx tm.Txn) error {
		attempts++
		v := tx.Load(a)
		if attempts == 1 {
			// Interleave: another thread bumps `a` after we read it.
			if err := tx2.Atomic(func(wx tm.Txn) error {
				wx.Store(a, wx.Load(a)+100)
				return nil
			}); err != nil {
				return err
			}
		}
		tx.Store(b, v+1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (abort then clean re-run)", attempts)
	}
	if sys.Stats().Aborts(telemetry.AbortValidation) != 1 {
		t.Fatalf("validation aborts = %d, want 1", sys.Stats().Aborts(telemetry.AbortValidation))
	}
	if got := m.Load(b); got != 101 {
		t.Fatalf("b = %d, want 101 (read must see the interleaved commit)", got)
	}
}

func TestStampOrdersConflictingWriters(t *testing.T) {
	const threads, ops = 4, 200
	sys, _, words := newSys(t, threads, tm.Config{})
	type stamped struct{ stamp, val uint64 }
	out := make([][]stamped, threads)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := sys.Thread(id)
			for n := 0; n < ops; n++ {
				var v uint64
				if err := th.Atomic(func(tx tm.Txn) error {
					v = tx.Load(words) + 1
					tx.Store(words, v)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
				out[id] = append(out[id], stamped{th.Stamp(), v})
			}
		}(i)
	}
	wg.Wait()
	// Stamps order the counter's committed values: sorting all (stamp,
	// value) pairs by stamp must yield values 1..threads*ops in order.
	all := make([]stamped, 0, threads*ops)
	for _, s := range out {
		all = append(all, s...)
	}
	if len(all) != threads*ops {
		t.Fatalf("recorded %d commits, want %d", len(all), threads*ops)
	}
	seen := make(map[uint64]bool, len(all))
	for _, s := range all {
		if seen[s.stamp] {
			t.Fatalf("duplicate writer stamp %d", s.stamp)
		}
		seen[s.stamp] = true
	}
	bystamp := make([]stamped, len(all))
	copy(bystamp, all)
	for i := range bystamp {
		for j := i + 1; j < len(bystamp); j++ {
			if bystamp[j].stamp < bystamp[i].stamp {
				bystamp[i], bystamp[j] = bystamp[j], bystamp[i]
			}
		}
	}
	for i, s := range bystamp {
		if s.val != uint64(i+1) {
			t.Fatalf("stamp order position %d has value %d; wv order is not the serialization order", i, s.val)
		}
	}
}
