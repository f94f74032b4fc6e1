package lazystm

import (
	"errors"
	"testing"

	"hastm.dev/hastm/internal/cache"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/stm"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

func testMachine(cores int) *sim.Machine {
	cfg := sim.DefaultConfig(cores)
	cfg.L1 = cache.Config{SizeBytes: 8 << 10, Assoc: 4}
	cfg.L2 = cache.Config{SizeBytes: 64 << 10, Assoc: 8}
	return sim.New(cfg)
}

func lineCfg() tm.Config {
	return tm.Config{Granularity: tm.LineGranularity, ValidateEvery: 64}
}

func TestCommitPublishes(t *testing.T) {
	machine := testMachine(1)
	s := New(machine, lineCfg())
	addr := machine.Mem.Alloc(64, 8)
	machine.Run(func(c *sim.Ctx) {
		th := s.Thread(c)
		if err := th.Atomic(func(tx tm.Txn) error {
			tx.Store(addr, 11)
			tx.Store(addr+8, 22)
			return nil
		}); err != nil {
			t.Errorf("Atomic: %v", err)
		}
	})
	if machine.Mem.Load(addr) != 11 || machine.Mem.Load(addr+8) != 22 {
		t.Fatal("committed values not visible")
	}
	if machine.Stats.Commits() != 1 {
		t.Fatalf("commits = %d", machine.Stats.Commits())
	}
	rec := s.Table().RecordFor(addr)
	if v := machine.Mem.Load(rec); !stm.IsVersion(v) || v == stm.VersionInit {
		t.Fatalf("record after commit = %#x, want an incremented version", v)
	}
}

// A deferred-update abort is invisible by construction: no store reaches
// memory before the commit protocol, so a body error must leave memory AND
// the record exactly as they were.
func TestBodyErrorPublishesNothing(t *testing.T) {
	machine := testMachine(1)
	s := New(machine, lineCfg())
	addr := machine.Mem.Alloc(64, 8)
	machine.Mem.Store(addr, 5)
	rec := s.Table().RecordFor(addr)
	recBefore := machine.Mem.Load(rec)
	boom := errors.New("boom")
	machine.Run(func(c *sim.Ctx) {
		th := s.Thread(c)
		if err := th.Atomic(func(tx tm.Txn) error {
			tx.Store(addr, 99)
			return boom
		}); !errors.Is(err, boom) {
			t.Errorf("err = %v", err)
		}
	})
	if got := machine.Mem.Load(addr); got != 5 {
		t.Fatalf("value after body error = %d, want 5", got)
	}
	if got := machine.Mem.Load(rec); got != recBefore {
		t.Fatalf("record touched by an attempt that never committed: %#x -> %#x", recBefore, got)
	}
}

// The commit sandbox: a transaction whose read set fails commit-time
// validation must publish NOTHING — its buffered stores die with the
// attempt, and the records it acquired go back at their original displaced
// versions.
func TestFailedCommitIsSandboxed(t *testing.T) {
	machine := testMachine(1)
	s := New(machine, lineCfg())
	in := machine.Mem.Alloc(64, 8)  // read by the transaction
	out := machine.Mem.Alloc(64, 8) // written by the transaction
	machine.Mem.Store(in, 1)
	inRec := s.Table().RecordFor(in)
	outRec := s.Table().RecordFor(out)
	outVerBefore := machine.Mem.Load(outRec)

	attempt := 0
	machine.Run(func(c *sim.Ctx) {
		th := s.Thread(c).(*Thread)
		if err := th.Atomic(func(tx tm.Txn) error {
			attempt++
			tx.Load(in)
			if attempt == 1 {
				// A "foreign" commit between the read and our commit: bump
				// the read record's version directly (zero simulated cost,
				// exactly what a concurrent committer's release does).
				v := machine.Mem.Load(inRec)
				machine.Mem.Store(inRec, stm.NextVersion(v))
			}
			tx.Store(out, uint64(100*attempt))
			return nil
		}); err != nil {
			t.Errorf("Atomic: %v", err)
		}
	})
	if attempt != 2 {
		t.Fatalf("attempts = %d, want 2 (one validation abort, one commit)", attempt)
	}
	if got := machine.Mem.Load(out); got != 200 {
		t.Fatalf("out = %d, want 200 — the failed attempt's 100 must never be visible", got)
	}
	if got := machine.Stats.Aborts(telemetry.AbortValidation); got != 1 {
		t.Fatalf("validation aborts = %d, want 1", got)
	}
	// The failed commit acquired outRec and must have released it at its
	// ORIGINAL version; the successful commit then bumped it exactly once.
	if got, want := machine.Mem.Load(outRec), stm.NextVersion(outVerBefore); got != want {
		t.Fatalf("out record = %#x, want exactly one bump to %#x", got, want)
	}
}

// Read-through-own-writes: a load after a buffered store sees the newest
// buffered value without logging a read, and the latest value per address
// is what commits.
func TestReadThroughOwnWrites(t *testing.T) {
	machine := testMachine(1)
	s := New(machine, lineCfg())
	addr := machine.Mem.Alloc(64, 8)
	machine.Mem.Store(addr, 7)
	machine.Run(func(c *sim.Ctx) {
		th := s.Thread(c)
		if err := th.Atomic(func(tx tm.Txn) error {
			tx.Store(addr, 40)
			if v := tx.Load(addr); v != 40 {
				t.Errorf("read-through saw %d, want 40", v)
			}
			tx.Store(addr, 41)
			if v := tx.Load(addr); v != 41 {
				t.Errorf("read-through saw %d, want 41", v)
			}
			return nil
		}); err != nil {
			t.Errorf("Atomic: %v", err)
		}
	})
	if got := machine.Mem.Load(addr); got != 41 {
		t.Fatalf("committed %d, want the latest buffered value 41", got)
	}
	if hits := machine.Stats.Count(telemetry.WriteBufferHits); hits != 2 {
		t.Fatalf("write_buffer_hits = %d, want 2", hits)
	}
}

// Closed nesting: a failed nested transaction unwinds only its own
// buffered writes (restoring the outer value for the shared address), and
// OrElse falls through a retrying alternative.
func TestNestedRollbackAndOrElse(t *testing.T) {
	machine := testMachine(1)
	s := New(machine, lineCfg())
	addr := machine.Mem.Alloc(64, 8)
	boom := errors.New("inner boom")
	machine.Run(func(c *sim.Ctx) {
		th := s.Thread(c)
		if err := th.Atomic(func(tx tm.Txn) error {
			tx.Store(addr, 1)
			if err := tx.Atomic(func(tx tm.Txn) error {
				tx.Store(addr, 2)
				tx.Store(addr+8, 3)
				return boom
			}); !errors.Is(err, boom) {
				t.Errorf("nested err = %v", err)
			}
			if v := tx.Load(addr); v != 1 {
				t.Errorf("after nested rollback addr reads %d, want the outer 1", v)
			}
			return tx.OrElse(
				func(tx tm.Txn) error { tx.Store(addr+16, 9); tx.Retry(); return nil },
				func(tx tm.Txn) error { tx.Store(addr+16, 10); return nil },
			)
		}); err != nil {
			t.Errorf("Atomic: %v", err)
		}
	})
	if got := machine.Mem.Load(addr); got != 1 {
		t.Fatalf("addr = %d, want 1", got)
	}
	if got := machine.Mem.Load(addr + 8); got != 0 {
		t.Fatalf("nested-only store leaked: %d", got)
	}
	if got := machine.Mem.Load(addr + 16); got != 10 {
		t.Fatalf("orElse committed %d, want the second alternative's 10", got)
	}
}

// MVCC: read-only transactions never abort. A writer core continuously
// displaces versions under a reader core; every reader transaction must
// commit on its first attempt with zero aborts of any cause, the snapshot
// counters must show the traffic, and snapshot_aborts must stay zero.
func TestMVCCReadOnlyNeverAborts(t *testing.T) {
	const words = 8
	machine := testMachine(2)
	s := NewMVCC(machine, lineCfg())
	base := machine.Mem.Alloc(words*64, 64)
	machine.Run(
		func(c *sim.Ctx) { // writer
			th := s.Thread(c)
			for i := 0; i < 40; i++ {
				if err := th.Atomic(func(tx tm.Txn) error {
					for w := uint64(0); w < words; w++ {
						tx.Store(base+w*64, uint64(i))
					}
					return nil
				}); err != nil {
					panic(err)
				}
			}
		},
		func(c *sim.Ctx) { // read-only scanner
			th := s.Thread(c)
			for i := 0; i < 40; i++ {
				if err := th.Atomic(func(tx tm.Txn) error {
					first := tx.Load(base)
					for w := uint64(1); w < words; w++ {
						if v := tx.Load(base + w*64); v != first {
							// Every writer commit stores one value to all
							// words, so any consistent snapshot is uniform.
							t.Errorf("torn snapshot: word %d = %d, word 0 = %d", w, v, first)
						}
					}
					return nil
				}); err != nil {
					panic(err)
				}
			}
		},
	)
	if err := machine.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	if got := machine.Stats.Block(1).TotalAborts(); got != 0 {
		t.Fatalf("read-only core aborted %d times; MVCC snapshot reads must never abort", got)
	}
	if got := machine.Stats.Count(telemetry.SnapshotAborts); got != 0 {
		t.Fatalf("snapshot_aborts = %d, want 0", got)
	}
	if got := machine.Stats.Count(telemetry.SnapshotReads); got == 0 {
		t.Fatal("snapshot_reads = 0; the reader never took the snapshot path")
	}
}

// MVCC first-store transitions: a current snapshot upgrades in place; a
// stale one restarts pinned to writer mode — exactly once, with no abort
// counted.
func TestMVCCUpgradeAndWriterRestart(t *testing.T) {
	machine := testMachine(1)
	s := NewMVCC(machine, lineCfg())
	a := machine.Mem.Alloc(64, 8)
	b := machine.Mem.Alloc(64, 8)
	aRec := s.Table().RecordFor(a)
	machine.Run(func(c *sim.Ctx) {
		th := s.Thread(c)
		// Current snapshot: read then store upgrades in place.
		if err := th.Atomic(func(tx tm.Txn) error {
			tx.Store(b, tx.Load(a)+1)
			return nil
		}); err != nil {
			t.Errorf("upgrade txn: %v", err)
		}
		// Stale snapshot: a foreign version bump lands between the logged
		// read and the first store, so the upgrade must fail and the attempt
		// restart in writer mode.
		attempt := 0
		if err := th.Atomic(func(tx tm.Txn) error {
			attempt++
			v := tx.Load(a)
			if attempt == 1 {
				machine.Mem.Store(aRec, stm.NextVersion(machine.Mem.Load(aRec)))
			}
			tx.Store(b, v+2)
			return nil
		}); err != nil {
			t.Errorf("restart txn: %v", err)
		}
		if attempt != 2 {
			t.Errorf("attempts = %d, want 2 (restart re-executes once)", attempt)
		}
	})
	if got := machine.Stats.Count(telemetry.MVCCUpgrades); got != 1 {
		t.Fatalf("mvcc_upgrades = %d, want 1", got)
	}
	if got := machine.Stats.Count(telemetry.MVCCWriterRestarts); got != 1 {
		t.Fatalf("mvcc_writer_restarts = %d, want 1", got)
	}
	if got := machine.Stats.TotalAborts(); got != 0 {
		t.Fatalf("aborts = %d; a writer restart must not be counted as an abort", got)
	}
	if got := machine.Stats.Commits(); got != 2 {
		t.Fatalf("commits = %d, want 2", got)
	}
}

// Concurrency soak for the race detector: both schemes hammer one shared
// counter array from four cores; the commit protocol must serialise every
// increment (the total equals the transaction count) with all Go-side
// state (write buffers, MVCC history maps) race-free.
func TestConcurrentCountersSoak(t *testing.T) {
	for _, mvcc := range []bool{false, true} {
		name := "lazy"
		mk := func(m *sim.Machine) *System { return New(m, lineCfg()) }
		if mvcc {
			name = "mvcc"
			mk = func(m *sim.Machine) *System { return NewMVCC(m, lineCfg()) }
		}
		t.Run(name, func(t *testing.T) {
			const cores, txns, slots = 4, 30, 4
			machine := testMachine(cores)
			s := mk(machine)
			base := machine.Mem.Alloc(slots*64, 64)
			progs := make([]sim.Program, cores)
			for i := range progs {
				id := i
				progs[i] = func(c *sim.Ctx) {
					th := s.Thread(c)
					for n := 0; n < txns; n++ {
						if err := th.Atomic(func(tx tm.Txn) error {
							slot := base + uint64((id+n)%slots)*64
							tx.Store(slot, tx.Load(slot)+1)
							return nil
						}); err != nil {
							panic(err)
						}
					}
				}
			}
			machine.Run(progs...)
			if err := machine.CheckHealth(); err != nil {
				t.Fatal(err)
			}
			var total uint64
			for i := uint64(0); i < slots; i++ {
				total += machine.Mem.Load(base + i*64)
			}
			if total != cores*txns {
				t.Fatalf("counter total = %d, want %d — a lost update slipped through commit", total, cores*txns)
			}
		})
	}
}

// Determinism: the same seeded two-core program produces identical final
// state and statistics on every run, for both schemes.
func TestSchemeDeterminism(t *testing.T) {
	run := func(mvcc bool) (uint64, uint64) {
		machine := testMachine(2)
		var s *System
		if mvcc {
			s = NewMVCC(machine, lineCfg())
		} else {
			s = New(machine, lineCfg())
		}
		base := machine.Mem.Alloc(4*64, 64)
		progs := make([]sim.Program, 2)
		for i := range progs {
			id := i
			progs[i] = func(c *sim.Ctx) {
				th := s.Thread(c)
				for n := 0; n < 20; n++ {
					if err := th.Atomic(func(tx tm.Txn) error {
						slot := base + uint64((id+n)%4)*64
						tx.Store(slot, tx.Load(slot)+uint64(id+1))
						return nil
					}); err != nil {
						panic(err)
					}
				}
			}
		}
		wall := machine.Run(progs...)
		var sum uint64
		for i := uint64(0); i < 4; i++ {
			sum += machine.Mem.Load(base + i*64)
		}
		return wall, sum
	}
	for _, mvcc := range []bool{false, true} {
		w1, s1 := run(mvcc)
		w2, s2 := run(mvcc)
		if w1 != w2 || s1 != s2 {
			t.Fatalf("mvcc=%v nondeterministic: (%d,%d) vs (%d,%d)", mvcc, w1, s1, w2, s2)
		}
	}
}
