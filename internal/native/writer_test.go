package native

import (
	"maps"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// TestWriteIndexAgainstMapModel drives the write index through random
// Store / Load / Savepoint / RollbackTo sequences beside the map it
// replaced: addr -> newest entry of the write log, snapshotted at every
// savepoint. The address span cycles through "a few hot words" (long prev
// chains), "a few dozen" and "more than the table holds" (growth), and the
// generation counter starts just under its limit so the wrap lands a few
// transactions in.
func TestWriteIndexAgainstMapModel(t *testing.T) {
	const universe = 3 * writeIndexMinSlots
	m := mem.New()
	base := m.Alloc(universe*mem.WordSize, mem.LineSize)
	sys := New(m, Config{Threads: 1})
	th := sys.Thread(0).(*Thread)
	th.windex.gen = math.MaxUint32 - 3
	rng := rand.New(rand.NewSource(1))

	type mark struct {
		sp    tm.Savepoint
		model map[uint64]int
	}
	for txn := 0; txn < 60; txn++ {
		span := []int{4, 40, universe}[txn%3]
		model := map[uint64]int{}
		var marks []mark
		check := func(addr uint64) {
			t.Helper()
			want, ok := model[addr]
			if !ok {
				want = -1
			}
			if got := th.windex.lookup(th.writes, addr); got != want {
				t.Fatalf("txn %d: index says entry %d for %#x, model says %d (log %d long, %d marks)",
					txn, got, addr, want, len(th.writes), len(marks))
			}
		}
		err := th.Atomic(func(tx tm.Txn) error {
			for step := 0; step < 600; step++ {
				addr := base + uint64(rng.Intn(span))*mem.WordSize
				switch op := rng.Intn(20); {
				case op < 10:
					tx.Store(addr, rng.Uint64())
					model[addr] = len(th.writes) - 1
				case op < 16:
					want := m.Load(addr)
					if i, ok := model[addr]; ok {
						want = th.writes[i].val
					}
					if got := tx.Load(addr); got != want {
						t.Fatalf("txn %d: Load(%#x) = %d, want %d", txn, addr, got, want)
					}
				case op < 18:
					marks = append(marks, mark{th.Savepoint(), maps.Clone(model)})
				case len(marks) > 0:
					k := rng.Intn(len(marks)) // unwind one or several levels at once
					th.RollbackTo(marks[k].sp)
					model, marks = marks[k].model, marks[:k]
					for a := uint64(0); a < uint64(span); a++ {
						check(base + a*mem.WordSize)
					}
				}
				check(addr)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for addr, i := range model {
			if got, want := m.Load(addr), th.writes[i].val; got != want {
				t.Fatalf("txn %d: committed %#x = %d, want its newest store %d", txn, addr, got, want)
			}
		}
	}
	if th.windex.gen >= math.MaxUint32-3 {
		t.Fatalf("generation %d never wrapped", th.windex.gen)
	}
	if len(th.windex.slots) <= writeIndexMinSlots {
		t.Fatalf("table never grew past %d slots", writeIndexMinSlots)
	}
}

// TestWriteIndexRollbackLitter: slots of rolled-back entries are not
// reclaimed one by one, so a transaction that keeps storing fresh addresses
// in alternatives it then rolls back fills the table with dead slots. The
// rebuild must see that the log is short and clear the table, not double it.
func TestWriteIndexRollbackLitter(t *testing.T) {
	const rounds, perRound = 64, 24
	m := mem.New()
	base := m.Alloc(rounds*perRound*mem.WordSize, mem.LineSize)
	sys := New(m, Config{Threads: 1})
	th := sys.Thread(0).(*Thread)
	keep := base // one address written outside every alternative
	err := th.Atomic(func(tx tm.Txn) error {
		tx.Store(keep, 7)
		for r := uint64(0); r < rounds; r++ {
			sp := th.Savepoint()
			for i := uint64(1); i < perRound; i++ {
				tx.Store(base+(r*perRound+i)*mem.WordSize, r)
			}
			tx.Store(keep, 100+r)
			th.RollbackTo(sp)
			if got := tx.Load(keep); got != 7 {
				t.Fatalf("round %d: Load(keep) = %d after rollback, want 7", r, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(th.windex.slots); got != writeIndexMinSlots {
		t.Fatalf("table grew to %d slots for a log that never held more than %d entries", got, perRound+1)
	}
	if got := m.Load(keep); got != 7 {
		t.Fatalf("committed keep = %d, want 7", got)
	}
}

// TestNoLostWakeupStress is invariant 6 under load. Waiters block in Retry
// on private flag words; a driver flips each flag (a commit with a waiter
// present) and then itself waits for every acknowledgement, while a churn
// goroutine commits to an unwatched word the whole time (commits that find
// no waiter, and commits racing waiters as they arrive and leave). The wake
// deadline is far longer than the run, so a timeout can only be a wakeup
// that was lost and then rescued by the deadline.
func TestNoLostWakeupStress(t *testing.T) {
	const waiters, rounds = 6, 150
	m := mem.New()
	// One line per word: no waiter watches a stripe someone else writes.
	word := func() uint64 { return m.Alloc(mem.WordSize, mem.LineSize) }
	flags, acks := make([]uint64, waiters), make([]uint64, waiters)
	for i := range flags {
		flags[i], acks[i] = word(), word()
	}
	churnWord := word()
	sys := New(m, Config{Threads: waiters + 2, Watchdog: Watchdog{WakeDeadline: 20 * time.Second}})
	for i := 0; i < waiters+2; i++ {
		sys.Thread(i)
	}

	var wg sync.WaitGroup
	run := func(id int, f func(th tm.Thread) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(sys.Thread(id)); err != nil {
				t.Error(err)
			}
		}()
	}
	for w := 0; w < waiters; w++ {
		flag, ack := flags[w], acks[w]
		run(w, func(th tm.Thread) error {
			for r := uint64(1); r <= rounds; r++ {
				err := th.Atomic(func(tx tm.Txn) error {
					if tx.Load(flag) < r {
						tx.Retry()
					}
					tx.Store(ack, r)
					return nil
				})
				if err != nil {
					return err
				}
			}
			return nil
		})
	}
	var stop atomic.Bool
	run(waiters, func(th tm.Thread) error { // the driver
		defer stop.Store(true)
		for r := uint64(1); r <= rounds; r++ {
			for _, flag := range flags {
				if err := th.Atomic(func(tx tm.Txn) error { tx.Store(flag, r); return nil }); err != nil {
					return err
				}
			}
			err := th.Atomic(func(tx tm.Txn) error {
				for _, ack := range acks {
					if tx.Load(ack) < r {
						tx.Retry()
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	run(waiters+1, func(th tm.Thread) error { // the churn
		body := func(tx tm.Txn) error { tx.Store(churnWord, tx.Load(churnWord)+1); return nil }
		for !stop.Load() {
			if err := th.Atomic(body); err != nil {
				return err
			}
		}
		return nil
	})
	wg.Wait()

	var retries, timeouts uint64
	for i := 0; i < waiters+2; i++ {
		retries += sys.Stats().Block(i).Count(telemetry.Retries)
		timeouts += sys.Stats().Block(i).Count(telemetry.WakeupTimeouts)
	}
	if timeouts != 0 {
		t.Fatalf("%d wakeups were lost and rescued by the deadline", timeouts)
	}
	if retries == 0 {
		t.Fatal("nobody ever blocked in Retry: the stress exercised nothing")
	}
	if n := sys.waiters.Load(); n != 0 {
		t.Fatalf("waiter count is %d after every waiter returned", n)
	}
}

// TestRetryWaiterAnnouncesBeforeSnapshot pins the waiter's half of invariant
// 6, which the stress above cannot hit on demand: holding wakeMu freezes a
// waiter at its channel snapshot, and it must already be counted there — a
// commit that lands between the snapshot and the block has to find it.
func TestRetryWaiterAnnouncesBeforeSnapshot(t *testing.T) {
	m := mem.New()
	flag := m.Alloc(mem.WordSize, mem.LineSize)
	sys := New(m, Config{Threads: 2, Watchdog: Watchdog{WakeDeadline: 20 * time.Second}})
	sys.wakeMu.Lock()
	done := make(chan error, 1)
	go func() {
		done <- sys.Thread(0).Atomic(func(tx tm.Txn) error {
			if tx.Load(flag) == 0 {
				tx.Retry()
			}
			return nil
		})
	}()
	for start := time.Now(); sys.waiters.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			sys.wakeMu.Unlock()
			t.Fatal("waiter reached its channel snapshot without raising System.waiters")
		}
	}
	sys.wakeMu.Unlock()
	if err := sys.Thread(1).Atomic(func(tx tm.Txn) error { tx.Store(flag, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := sys.Stats().Block(0).Count(telemetry.WakeupTimeouts); n != 0 {
		t.Fatalf("waiter needed %d deadline rescues", n)
	}
}

// TestSteadyStateAllocs: once its logs have grown to size, a transaction
// allocates nothing — not the writer path (write index, stripe scratch,
// commit notification) and not the read-only one.
func TestSteadyStateAllocs(t *testing.T) {
	sys, _, words := newSys(t, 1, tm.Config{})
	th := sys.Thread(0)
	for name, body := range map[string]func(tm.Txn) error{
		"4-store writer": func(tx tm.Txn) error {
			for i := uint64(0); i < 4; i++ {
				tx.Store(words+i*mem.LineSize, tx.Load(words+i*mem.LineSize)+1)
			}
			return nil
		},
		"read-only": func(tx tm.Txn) error {
			for i := uint64(0); i < 16; i++ {
				tx.Load(words + i*mem.WordSize)
			}
			return nil
		},
	} {
		run := func() {
			if err := th.Atomic(body); err != nil {
				t.Fatal(err)
			}
		}
		run() // grow the logs
		if n := testing.AllocsPerRun(200, run); n != 0 {
			t.Errorf("%s transaction: %v allocs per run, want 0", name, n)
		}
	}
}

// TestSystemLayout pins the layout rule on System: under any 8-byte
// alignment of the struct, the cache line holding the clock and the one
// holding the arena pointer hold no other field.
func TestSystemLayout(t *testing.T) {
	const line = 64
	var s System
	hot := map[string]uintptr{
		"clock":     unsafe.Offsetof(s.clock),
		"arenaNext": unsafe.Offsetof(s.arenaNext),
	}
	typ := reflect.TypeOf(&s).Elem()
	for name, off := range hot {
		// The word's line starts somewhere in (off-line+8 .. off]: a field
		// is clear of it iff it ends by off-line+8 or starts at off+line.
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Name == name || f.Name == "_" {
				continue
			}
			if f.Offset+f.Type.Size() > off-line+8 && f.Offset < off+line {
				t.Errorf("System.%s [%d,%d) can share a cache line with %s at %d",
					f.Name, f.Offset, f.Offset+f.Type.Size(), name, off)
			}
		}
	}
}
