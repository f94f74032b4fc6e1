package stm

import (
	"testing"
	"testing/quick"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// Property-based tests of the STM engine's core invariants, using
// testing/quick to generate operation sequences.

// TestQuickSingleThreadMatchesOracle: any sequence of transactional
// reads/writes/nested-blocks/aborts executed single-threaded must leave
// memory exactly as a plain map-based oracle interpreting the same
// sequence would.
func TestQuickSingleThreadMatchesOracle(t *testing.T) {
	type op struct {
		Kind uint8  // store / load / nested-store-commit / nested-store-fail / user-abort-txn
		Slot uint8  // which word
		Val  uint16 // value to store
	}
	const slots = 16

	f := func(ops []op) bool {
		machine := testMachine(1)
		s := New(machine, lineCfg())
		base := machine.Mem.Alloc(slots*mem.LineSize, mem.LineSize)
		addrOf := func(slot uint8) uint64 {
			return base + uint64(slot%slots)*mem.LineSize
		}

		oracle := map[uint64]uint64{}
		ok := true
		machine.Run(func(c *sim.Ctx) {
			th := s.Thread(c)
			for _, o := range ops {
				shadow := map[uint64]uint64{}
				aborted := false
				err := th.Atomic(func(tx tm.Txn) error {
					switch o.Kind % 5 {
					case 0: // plain store
						tx.Store(addrOf(o.Slot), uint64(o.Val))
						shadow[addrOf(o.Slot)] = uint64(o.Val)
					case 1: // load must observe the oracle's value
						if got := tx.Load(addrOf(o.Slot)); got != oracle[addrOf(o.Slot)] {
							ok = false
						}
					case 2: // nested block that commits
						_ = tx.Atomic(func(in tm.Txn) error {
							in.Store(addrOf(o.Slot), uint64(o.Val)+1)
							shadow[addrOf(o.Slot)] = uint64(o.Val) + 1
							return nil
						})
					case 3: // nested block that fails: partial rollback
						tx.Store(addrOf(o.Slot), uint64(o.Val)+2)
						shadow[addrOf(o.Slot)] = uint64(o.Val) + 2
						_ = tx.Atomic(func(in tm.Txn) error {
							in.Store(addrOf(o.Slot+1), 999)
							return errTest
						})
						// The inner write must already be undone inside
						// the still-running transaction.
						if tx.Load(addrOf(o.Slot+1)) != oracle[addrOf(o.Slot+1)] {
							ok = false
						}
					case 4: // user abort: nothing survives
						tx.Store(addrOf(o.Slot), 12345)
						tx.Abort()
					}
					return nil
				})
				if err == tm.ErrUserAbort {
					aborted = true
				}
				if !aborted {
					for a, v := range shadow {
						oracle[a] = v
					}
				}
			}
		})
		if !ok {
			return false
		}
		for a, v := range oracle {
			if machine.Mem.Load(a) != v {
				return false
			}
		}
		// No record may be left in the exclusive state.
		for slot := uint8(0); slot < slots; slot++ {
			rec := s.Table().RecordFor(addrOf(slot))
			if !IsVersion(machine.Mem.Load(rec)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

type testErr struct{}

func (testErr) Error() string { return "test error" }

var errTest = testErr{}

// TestQuickConcurrentSumInvariant: concurrent random transfers between
// slots preserve the total, for every contention policy.
func TestQuickConcurrentSumInvariant(t *testing.T) {
	f := func(seed uint16, policy uint8) bool {
		machine := testMachine(3)
		cfg := lineCfg()
		cfg.Policy = tm.Policy(policy % 3)
		s := New(machine, cfg)
		const slots = 6
		base := machine.Mem.Alloc(slots*mem.LineSize, mem.LineSize)
		for i := uint64(0); i < slots; i++ {
			machine.Mem.Store(base+i*mem.LineSize, 100)
		}
		prog := func(c *sim.Ctx) {
			th := s.Thread(c)
			rng := uint64(seed) + uint64(c.ID())*7919 + 1
			next := func(n uint64) uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng % n
			}
			for i := 0; i < 15; i++ {
				from := base + next(slots)*mem.LineSize
				to := base + next(slots)*mem.LineSize
				_ = th.Atomic(func(tx tm.Txn) error {
					v := tx.Load(from)
					if v == 0 {
						return nil
					}
					tx.Store(from, v-1)
					tx.Store(to, tx.Load(to)+1)
					return nil
				})
			}
		}
		machine.Run(prog, prog, prog)
		var sum uint64
		for i := uint64(0); i < slots; i++ {
			sum += machine.Mem.Load(base + i*mem.LineSize)
		}
		return sum == slots*100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestReadLogOverflowPanics: exceeding the log capacity must fail loudly,
// not corrupt state.
func TestReadLogOverflowPanics(t *testing.T) {
	machine := testMachine(1)
	s := New(machine, tm.Config{Granularity: tm.LineGranularity}) // no periodic validation
	// Distinct records per read: walk distinct lines; the table has 4096
	// entries but duplicates in the read set are allowed, so any addresses
	// will do — the log fills after LogCap appends.
	base := machine.Mem.Alloc(8*mem.LineSize, mem.LineSize)
	machine.Run(func(c *sim.Ctx) {
		th := s.Thread(c)
		defer func() {
			if recover() == nil {
				t.Error("read log overflow did not panic")
			}
		}()
		_ = th.Atomic(func(tx tm.Txn) error {
			for i := 0; i <= LogCap; i++ {
				tx.Load(base + uint64(i%8)*mem.LineSize)
			}
			return nil
		})
	})
}

// TestValidationDetectsStaleRead: a read whose record version changes
// after logging (and before commit) must abort the first attempt.
func TestValidationDetectsStaleRead(t *testing.T) {
	machine := testMachine(2)
	s := New(machine, lineCfg())
	data := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	sync := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	attempts := 0
	reader := func(c *sim.Ctx) {
		th := s.Thread(c)
		_ = th.Atomic(func(tx tm.Txn) error {
			attempts++
			tx.Load(data)
			if attempts == 1 {
				c.Store(sync, 1)
				for c.Load(sync) != 2 {
					c.Exec(1)
				}
			}
			return nil
		})
	}
	writer := func(c *sim.Ctx) {
		th := s.Thread(c)
		for c.Load(sync) != 1 {
			c.Exec(1)
		}
		_ = th.Atomic(func(tx tm.Txn) error {
			tx.Store(data, 9)
			return nil
		})
		c.Store(sync, 2)
	}
	machine.Run(reader, writer)
	if attempts < 2 {
		t.Fatalf("stale read committed without re-execution (attempts=%d)", attempts)
	}
	if machine.Stats.Aborts(telemetry.AbortValidation)+machine.Stats.Aborts(telemetry.AbortLockConflict) == 0 {
		t.Fatal("no conflict abort recorded")
	}
}

// TestWriteAfterReadWithInterveningCommitAborts: the read-set entry's
// version no longer matches at acquisition time; validation must catch the
// inconsistency even though the record is now self-owned.
func TestWriteAfterReadWithInterveningCommitAborts(t *testing.T) {
	machine := testMachine(2)
	s := New(machine, lineCfg())
	data := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	sync := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	attempt := 0
	reader := func(c *sim.Ctx) {
		th := s.Thread(c)
		_ = th.Atomic(func(tx tm.Txn) error {
			attempt++
			v := tx.Load(data) // logs version v1
			if attempt == 1 {
				c.Store(sync, 1)
				for c.Load(sync) != 2 {
					c.Exec(1)
				}
			}
			tx.Store(data, v+1) // acquires at v2 after the writer committed
			return nil
		})
	}
	writer := func(c *sim.Ctx) {
		th := s.Thread(c)
		for c.Load(sync) != 1 {
			c.Exec(1)
		}
		_ = th.Atomic(func(tx tm.Txn) error {
			tx.Store(data, 100)
			return nil
		})
		c.Store(sync, 2)
	}
	machine.Run(reader, writer)
	if attempt < 2 {
		t.Fatal("lost-update anomaly: the stale read-then-write committed first try")
	}
	// The final value must reflect writer-then-reader serialisation.
	if got := machine.Mem.Load(data); got != 101 {
		t.Fatalf("final value = %d, want 101", got)
	}
}

// TestOrElseThreeAlternatives exercises deeper orElse chains.
func TestOrElseThreeAlternatives(t *testing.T) {
	machine := testMachine(1)
	s := New(machine, lineCfg())
	boxes := machine.Mem.Alloc(3*mem.LineSize, mem.LineSize)
	machine.Mem.Store(boxes+2*mem.LineSize, 7) // only the third has data
	var got uint64
	machine.Run(func(c *sim.Ctx) {
		th := s.Thread(c)
		take := func(i uint64) func(tm.Txn) error {
			return func(tx tm.Txn) error {
				v := tx.Load(boxes + i*mem.LineSize)
				if v == 0 {
					tx.Retry()
				}
				got = v
				return nil
			}
		}
		if err := th.Atomic(func(tx tm.Txn) error {
			return tx.OrElse(take(0), take(1), take(2))
		}); err != nil {
			t.Errorf("orElse: %v", err)
		}
	})
	if got != 7 {
		t.Fatalf("got = %d, want 7", got)
	}
}

// TestNestedOrElseInsideNestedAtomic: composition of the composition
// operators.
func TestNestedOrElseInsideNestedAtomic(t *testing.T) {
	machine := testMachine(1)
	s := New(machine, lineCfg())
	a := machine.Mem.Alloc(2*mem.LineSize, mem.LineSize)
	machine.Mem.Store(a+mem.LineSize, 3)
	machine.Run(func(c *sim.Ctx) {
		th := s.Thread(c)
		err := th.Atomic(func(tx tm.Txn) error {
			tx.Store(a, 1)
			return tx.Atomic(func(in tm.Txn) error {
				return in.OrElse(
					func(alt tm.Txn) error {
						if alt.Load(a+mem.LineSize) != 999 {
							alt.Retry()
						}
						return nil
					},
					func(alt tm.Txn) error {
						alt.Store(a+mem.LineSize, alt.Load(a+mem.LineSize)+1)
						return nil
					},
				)
			})
		})
		if err != nil {
			t.Errorf("Atomic: %v", err)
		}
	})
	if machine.Mem.Load(a) != 1 || machine.Mem.Load(a+mem.LineSize) != 4 {
		t.Fatalf("state: %d, %d", machine.Mem.Load(a), machine.Mem.Load(a+mem.LineSize))
	}
}
