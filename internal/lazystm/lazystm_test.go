package lazystm

import (
	"errors"
	"fmt"
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

// The zombie bound: a lazy reader revalidates its read set every
// ValidateEvery read barriers, so a transaction whose first read was
// overwritten by a foreign commit aborts inside its body — before the
// commit — instead of running on an inconsistent snapshot to the end.
func TestPeriodicValidationAbortsAZombie(t *testing.T) {
	machine := testMachine(1)
	cfg := lineCfg()
	s := New(machine, cfg)
	in := machine.Mem.Alloc(64, 8)
	other := machine.Mem.Alloc(64, 8)
	inRec := s.Table().RecordFor(in)
	attempt, reads, finished := 0, 0, []bool{}
	machine.Run(func(c *sim.Ctx) {
		th := s.Thread(c)
		if err := th.Atomic(func(tx tm.Txn) error {
			attempt++
			finished = append(finished, false)
			tx.Load(in)
			if attempt == 1 {
				// A foreign commit overwrites the first read.
				machine.Mem.Store(inRec, stm.NextVersion(machine.Mem.Load(inRec)))
			}
			for i := 0; i < 2*cfg.ValidateEvery; i++ {
				if attempt == 1 {
					reads++
				}
				tx.Load(other)
			}
			finished[attempt-1] = true
			return nil
		}); err != nil {
			t.Errorf("Atomic: %v", err)
		}
	})
	if attempt != 2 || finished[0] || !finished[1] {
		t.Fatalf("attempts %d, finished %v: want the first attempt cut short and the second to commit", attempt, finished)
	}
	if reads != cfg.ValidateEvery-1 {
		t.Errorf("the zombie aborted in read %d after the stale one, want %d (the period's last barrier)", reads, cfg.ValidateEvery-1)
	}
	if got := machine.Stats.Aborts(telemetry.AbortValidation); got != 1 {
		t.Errorf("validation aborts = %d, want 1", got)
	}
}

// A record another core holds past WaitShared's bounded wait fails the
// commit-time acquisition: the committer gives back the records it already
// acquired, at their displaced versions, and aborts with a lock conflict
// rather than wait on a core that may be waiting on it. Once the holder
// releases, the retry commits and memory holds what a serial run gives.
func TestCommitAcquisitionGivesUp(t *testing.T) {
	machine := testMachine(2)
	s := New(machine, lineCfg())
	a := machine.Mem.Alloc(64, 64)
	b := machine.Mem.Alloc(64, 64)
	aRec, bRec := s.Table().RecordFor(a), s.Table().RecordFor(b)
	if aRec > bRec {
		a, b, aRec, bRec = b, a, bRec, aRec // a's record is acquired first
	}
	aVer, bVer := machine.Mem.Load(aRec), machine.Mem.Load(bRec)
	const holder = 0xdead0 // an owner pointer: even, so not a version
	machine.Run(
		func(c *sim.Ctx) {
			th := s.Thread(c)
			c.Exec(100) // the holder takes b's record first
			attempt := 0
			if err := th.Atomic(func(tx tm.Txn) error {
				if attempt++; attempt > 1 {
					if v := c.Load(aRec); v != aVer {
						return fmt.Errorf("attempt %d begins with a's record at %#x, want %#x", attempt, v, aVer)
					}
				}
				tx.Store(a, tx.Load(a)+1)
				tx.Store(b, 1) // blind: b's record is first touched at commit
				return nil
			}); err != nil {
				t.Errorf("Atomic: %v", err)
			}
		},
		func(c *sim.Ctx) { // the holder: owns b's record, then releases it
			if ok, _ := c.CAS(bRec, bVer, holder); !ok {
				t.Error("holder could not take b's record")
			}
			c.Exec(1_000_000)
			c.Store(bRec, bVer)
		},
	)
	if err := machine.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	if got := machine.Stats.Aborts(telemetry.AbortLockConflict); got == 0 {
		t.Error("no lock-conflict abort: the committer never gave up on the held record")
	}
	if got, want := machine.Mem.Load(aRec), stm.NextVersion(aVer); got != want {
		t.Errorf("a's record = %#x, want one bump to %#x: a failed acquisition must restore what it took", got, want)
	}
	if ga, gb := machine.Mem.Load(a), machine.Mem.Load(b); ga != 1 || gb != 1 {
		t.Errorf("a, b = %d, %d, want 1, 1", ga, gb)
	}
}

// A snapshot older than every version the history retains for a location
// cannot be served: the read aborts (snapshot_aborts counts it) and the
// retry reads from a fresh snapshot.
func TestMVCCHistoryMissAborts(t *testing.T) {
	machine := testMachine(2)
	s := NewMVCC(machine, lineCfg())
	addr := machine.Mem.Alloc(64, 64)
	var seen []uint64
	machine.Run(
		func(c *sim.Ctx) { // writer: displaces more versions than the history keeps
			th := s.Thread(c)
			for i := 1; i <= histDepth+4; i++ {
				if err := th.Atomic(func(tx tm.Txn) error { tx.Store(addr, uint64(i)); return nil }); err != nil {
					t.Errorf("writer: %v", err)
				}
			}
		},
		func(c *sim.Ctx) { // reader: takes its snapshot first, reads after the writer is done
			th := s.Thread(c)
			attempt := 0
			if err := th.Atomic(func(tx tm.Txn) error {
				if attempt++; attempt == 1 {
					c.Exec(10_000_000)
				}
				seen = append(seen, tx.Load(addr))
				return nil
			}); err != nil {
				t.Errorf("reader: %v", err)
			}
		},
	)
	if err := machine.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	if got := machine.Stats.Count(telemetry.SnapshotAborts); got != 1 {
		t.Errorf("snapshot_aborts = %d, want 1", got)
	}
	if len(seen) != 1 || seen[0] != histDepth+4 {
		t.Errorf("reader saw %v, want only the retry's read of the last write %d", seen, histDepth+4)
	}
}

// Object granularity: a field store is buffered under the object's header
// record and read back through the buffer; an unwritten field is read
// through the header record.
func TestObjectFieldsReadOwnWrites(t *testing.T) {
	for name, mk := range map[string]func(*sim.Machine, tm.Config) *System{"lazy": New, "mvcc": NewMVCC} {
		machine := testMachine(1)
		s := mk(machine, tm.Config{Granularity: tm.ObjectGranularity})
		if s.Name() != name {
			t.Errorf("Name() = %q, want %q", s.Name(), name)
		}
		obj := stm.AllocObject(machine.Mem, 16)
		machine.Mem.Store(obj+16, 5)
		machine.Run(func(c *sim.Ctx) {
			if err := s.Thread(c).Atomic(func(tx tm.Txn) error {
				tx.StoreObj(obj, 8, 7)
				if v := tx.LoadObj(obj, 8); v != 7 {
					t.Errorf("%s: buffered field read %d, want 7", name, v)
				}
				if v := tx.LoadObj(obj, 16); v != 5 {
					t.Errorf("%s: unwritten field read %d, want 5", name, v)
				}
				return nil
			}); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		})
		if got := machine.Mem.Load(obj + 8); got != 7 {
			t.Errorf("%s: field after commit = %d, want 7", name, got)
		}
	}
}

// The write buffer has room for stm.LogCap stores; one more fails loudly
// rather than write past the simulated log.
func TestWriteBufferOverflowPanics(t *testing.T) {
	machine := testMachine(1)
	s := New(machine, lineCfg())
	addr := machine.Mem.Alloc(64, 8)
	machine.Run(func(c *sim.Ctx) {
		defer func() {
			if recover() == nil {
				t.Error("write-buffer overflow did not panic")
			}
		}()
		_ = s.Thread(c).Atomic(func(tx tm.Txn) error {
			for i := 0; i <= stm.LogCap; i++ {
				tx.Store(addr, uint64(i))
			}
			return nil
		})
	})
}
