package stm

import (
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// The eager protocol's logs in the Base's descriptor.
const (
	logWrites = 1 // write set: records owned, with the version displaced
	logUndo   = 2 // undo log: data words overwritten in place
)

// UndoEntry records a data word's old value for rollback.
type UndoEntry struct {
	Addr uint64
	Old  uint64
}

// Thread is one core's software-transactional thread: the eager-undo
// protocol (strict two-phase locking for writes, in-place updates behind an
// undo log) under the shared tm.Engine. It implements tm.Thread, tm.Txn and
// tm.Protocol.
type Thread struct {
	Base
	hw *hastm // HASTM's per-thread state; nil for the base STM

	// Go-side mirrors of the simulated write set and undo log.
	writes []RecEntry
	undo   []UndoEntry

	writeVer map[uint64]uint64 // rec -> version at acquire, for validation
}

var (
	_ tm.Thread   = (*Thread)(nil)
	_ tm.Protocol = (*Thread)(nil)
)

// --- tm.Protocol: eager version management ------------------------------------

// BeginAttempt rewinds the three logs. HASTM then picks the attempt's
// mode, clears the mark counter and publishes the mode in the descriptor
// word its read barrier tests ("test [txndesc + mode], #aggressive").
func (t *Thread) BeginAttempt(attempt int) {
	t.writes = t.writes[:0]
	t.undo = t.undo[:0]
	clear(t.writeVer)
	t.BeginLogs(attempt)
	hw := t.hw
	if hw == nil {
		return
	}
	hw.chooseMode(t, attempt)
	ctx := t.ctx
	prev := ctx.SetCat(telemetry.Commit)
	if hw.InterAtomic && !hw.aggressive {
		// Carried-over marks are only sound under aggressive commit
		// (which re-checks the counter); cautious filtering must not
		// trust marks it did not set itself.
		ctx.ResetMarkAll()
	}
	ctx.ResetMarkCounter()
	var mode uint64
	if hw.aggressive {
		mode = modeAggressiveBit
	}
	ctx.Store(t.desc+descMode, mode)
	ctx.SetCat(prev)
}

// Commit validates the read set and, if it holds, releases every owned
// record at its next version — the in-place updates are already public.
func (t *Thread) Commit() (bool, telemetry.AbortCause) {
	ctx := t.ctx
	prev := ctx.SetCat(telemetry.Validate)
	ok, cause := t.validate(true)
	ctx.SetCat(telemetry.Commit)
	if ok {
		for _, w := range t.writes {
			ctx.Store(w.Rec, NextVersion(w.Ver))
			ctx.Exec(2)
		}
		ctx.Exec(8) // commit bookkeeping
	}
	ctx.SetCat(prev)
	return ok, cause
}

// EndAttempt clears HASTM's marks between transactions (read marks unless
// InterAtomic carries them over; write-plane facts always) and feeds the
// outcome to its mode controller.
func (t *Thread) EndAttempt(committed bool) {
	if hw := t.hw; hw != nil {
		ctx := t.ctx
		prev := ctx.SetCat(telemetry.Commit)
		if !hw.InterAtomic {
			ctx.ResetMarkAll()
		}
		if hw.FilterWrites {
			ctx.ResetMarkAllP(writePlane)
		}
		ctx.SetCat(prev)
		hw.recordOutcome(ctx.Telem(), committed)
	}
	t.Base.EndAttempt(committed)
}

// ObserveSetSizes raises the log-pressure high-water marks to the current
// set sizes, which have reached their peak at an attempt's end.
func (t *Thread) ObserveSetSizes() (reads, writes, undo int) {
	reads, writes, undo = len(t.Reads), len(t.writes), len(t.undo)
	b := t.ctx.Telem()
	b.ObserveMax(telemetry.ReadSetHWM, uint64(reads))
	b.ObserveMax(telemetry.WriteSetHWM, uint64(writes))
	b.ObserveMax(telemetry.UndoLogHWM, uint64(undo))
	return reads, writes, undo
}

// ReadsConsistent: an eager reader can be a zombie between validations, so
// the engine's sandbox rule applies to the real read set.
func (t *Thread) ReadsConsistent() bool { return t.ReadsConsistentWith(t.writeVer) }

// validate checks the read set. Under HASTM a zero mark counter proves no
// marked line was evicted or snooped, so the read set is intact without
// touching it (Fig 6). On failure the returned cause distinguishes a real
// conflict from an aggressive-mode transaction that merely lost the
// ability to validate (no read set to fall back on).
func (t *Thread) validate(atCommit bool) (bool, telemetry.AbortCause) {
	if hw := t.hw; hw != nil {
		ctx := t.ctx
		markCount := ctx.ReadMarkCounter()
		if atCommit && !hw.InterAtomic {
			// Fig 6 clears the marks at the validation point; with
			// InterAtomic they are deliberately kept for the next block.
			ctx.ResetMarkAll()
		}
		ctx.Exec(2) // compare + branch
		if markCount == 0 {
			ctx.Telem().Inc(telemetry.FastValidations)
			t.emitValidate("fast")
			return true, 0
		}
		ctx.Telem().Inc(telemetry.MarkCounterNonZero)
		hw.sawMarkLoss = true
		if hw.aggressive {
			return false, telemetry.AbortAggressive
		}
	}
	if !t.ValidateReads(t.writeVer) {
		return false, telemetry.AbortValidation
	}
	return true, 0
}

// periodicValidate bounds zombie execution: every ValidateEvery read
// barriers the read set is re-validated; a failure aborts immediately.
func (t *Thread) periodicValidate() {
	if !t.ValidationDue() {
		return
	}
	prev := t.ctx.SetCat(telemetry.Validate)
	ok, cause := t.validate(false)
	t.ctx.SetCat(prev)
	if !ok {
		panic(tm.AbortSignal{Cause: cause})
	}
}

// Savepoint marks the three logs at nested-transaction entry.
func (t *Thread) Savepoint() tm.Savepoint {
	return tm.Savepoint{Reads: len(t.Reads), Writes: len(t.writes), Undo: len(t.undo)}
}

// RollbackAll undoes every effect of the current attempt.
func (t *Thread) RollbackAll() {
	t.RollbackTo(tm.Savepoint{})
	t.ChargeAbort()
}

// RollbackTo reverts data and ownership to a savepoint (partial rollback
// for nested transactions, full rollback for sp == zero).
func (t *Thread) RollbackTo(sp tm.Savepoint) {
	ctx := t.ctx
	prev := ctx.SetCat(telemetry.Commit)

	// Restore data from the undo log, newest first.
	undoLog := t.LogAddr(logUndo)
	for i := len(t.undo) - 1; i >= sp.Undo; i-- {
		e := t.undo[i]
		ctx.Load(undoLog + uint64(i)*EntryBytes)     // entry addr word
		ctx.Load(undoLog + uint64(i)*EntryBytes + 8) // entry value word
		ctx.Store(e.Addr, e.Old)
		ctx.Exec(2)
	}
	t.undo = t.undo[:sp.Undo]

	// Release records acquired since the savepoint.
	for i := len(t.writes) - 1; i >= sp.Writes; i-- {
		w := t.writes[i]
		ctx.Store(w.Rec, NextVersion(w.Ver))
		ctx.Exec(2)
		delete(t.writeVer, w.Rec)
	}
	t.writes = t.writes[:sp.Writes]

	t.Reads = t.Reads[:sp.Reads]
	if t.hw != nil && t.hw.FilterWrites {
		// The released records and popped undo entries void every
		// write-plane fact; discard them all, conservatively.
		ctx.ResetMarkAllP(writePlane)
	}
	ctx.SetCat(prev)
}

// --- Introspection / suspension ---------------------------------------------

// GCPause models §5's language-environment integration: the transaction is
// suspended, a collector or tool inspects (and may patch) its logs and even
// transactionally written objects, and the transaction resumes WITHOUT
// aborting. The hardware cost is a ring transition: all mark bits are
// discarded and the mark counter bumps, so the transaction merely falls
// back to full software validation at commit.
func (t *Thread) GCPause(inspect func(reads, writes []RecEntry, undo []UndoEntry)) {
	t.RequireTxn()
	if inspect != nil {
		inspect(t.Reads, t.writes, t.undo)
	}
	t.ctx.RingTransition()
}

// --- Barriers ---------------------------------------------------------------

// Load transactionally reads the word at addr using the global record
// table (cache-line-granularity conflict detection). Line-granularity
// HASTM wraps the record barrier in the data line's mark (Fig 7/9):
// loadtestmark_granularity64 filters the whole barrier, and the slow path
// ends with loadsetmark_granularity64, which marks the line and loads the
// datum.
func (t *Thread) Load(addr uint64) uint64 {
	t.RequireTxn()
	hw, ctx := t.hw, t.ctx
	if hw == nil || !hw.line() {
		t.recordReadBarrier(t.RecordFor(addr, telemetry.RdBar))
		return t.AppLoad(addr)
	}
	if hw.Filter {
		prev := ctx.SetCat(telemetry.RdBar)
		v, marked := ctx.LoadTestMark(addr, mem.LineSize)
		ctx.Exec(1) // jnae complete
		ctx.SetCat(prev)
		if marked {
			ctx.Telem().Inc(telemetry.FilteredReads)
			return v
		}
	}
	t.recordReadBarrier(t.RecordFor(addr, telemetry.RdBar))
	prev := ctx.SetCat(telemetry.RdBar)
	v := ctx.LoadSetMark(addr, mem.LineSize)
	ctx.SetCat(prev)
	return v
}

// LoadObj transactionally reads the field at offset off of the object
// whose header record is at base (see Base.ObjectField).
func (t *Thread) LoadObj(base, off uint64) uint64 {
	t.RequireTxn()
	if !t.ObjectField("LoadObj", off) {
		return t.Load(base + off)
	}
	t.recordReadBarrier(base)
	return t.AppLoad(base + off)
}

// recordReadBarrier is stmRdBar (Fig 3/4) with HASTM's record steps
// (Fig 5/8): a marked record filters the barrier, the slow path marks the
// record, and aggressive mode skips the read-set append.
func (t *Thread) recordReadBarrier(rec uint64) {
	hw, ctx := t.hw, t.ctx
	prev := ctx.SetCat(telemetry.RdBar)
	defer ctx.SetCat(prev)

	var v uint64
	switch {
	case hw == nil:
		v = ctx.Load(rec)
		ctx.Exec(2) // cmp txndesc + jeq
		if v == t.desc {
			return
		}
	case hw.line() && !hw.aggressive:
		v = ctx.Load(rec) // Fig 7's plain mov; the data line carries the mark
	default:
		// Under line granularity Load already tested the data line's mark.
		if hw.Filter && !hw.line() {
			_, marked := ctx.LoadTestMark(rec, hw.gran)
			if marked {
				ctx.Exec(1) // jnae done
				ctx.Telem().Inc(telemetry.FilteredReads)
				return
			}
		}
		v = ctx.LoadSetMark(rec, hw.gran)
	}
	ctx.Exec(2) // test versionmask + jz

	if !IsVersion(v) {
		if v == t.desc {
			return // recursion: we already own it exclusively
		}
		v = t.HandleContention(rec)
	}

	ctx.Telem().Inc(telemetry.UnfilteredReads)
	if hw != nil {
		ctx.Exec(2) // test [txndesc + mode], #aggressive; jnz done (Fig 8)
	}
	if hw != nil && hw.aggressive {
		ctx.Telem().Inc(telemetry.ReadLogsSkipped)
	} else {
		t.LogRead(rec, v)
	}
	t.periodicValidate()
}

// Store transactionally writes the word at addr (line-granularity record).
func (t *Thread) Store(addr, val uint64) {
	t.RequireTxn()
	t.recordWriteBarrier(t.RecordFor(addr, telemetry.WrBar))
	t.undoLogAndStore(addr, val)
}

// StoreObj transactionally writes a field of the object at base.
func (t *Thread) StoreObj(base, off, val uint64) {
	t.RequireTxn()
	if !t.ObjectField("StoreObj", off) {
		t.Store(base+off, val)
		return
	}
	t.recordWriteBarrier(base)
	t.undoLogAndStore(base+off, val)
}

// recordWriteBarrier is stmWrBar (Fig 3): acquire the record exclusively
// with a CAS, logging the displaced version in the write set. HASTM marks
// the acquired record so later read barriers filter (§5: "The HASTM write
// barrier also sets the mark bit on the transaction record"), and with
// FilterWrites a write-plane mark proves a record still owned.
func (t *Thread) recordWriteBarrier(rec uint64) {
	hw, ctx := t.hw, t.ctx
	prev := ctx.SetCat(telemetry.WrBar)
	defer ctx.SetCat(prev)

	if hw != nil && hw.FilterWrites {
		_, marked := ctx.LoadTestMarkP(writePlane, rec, subBlock)
		ctx.Exec(1) // branch
		if marked {
			ctx.Telem().Inc(telemetry.FilteredWrites)
			return
		}
	}

	v := ctx.Load(rec)
	ctx.Exec(2)
	if v == t.desc {
		return
	}
	ctx.Exec(2)
	if !IsVersion(v) {
		v = t.HandleContention(rec)
	}
	for {
		ok, cur := ctx.CAS(rec, v, t.desc)
		if ok {
			break
		}
		ctx.Exec(1)
		if IsVersion(cur) {
			v = cur // raced with a release; retry at the new version
			continue
		}
		v = t.HandleContention(rec)
	}
	if len(t.writes) >= LogCap {
		panic("stm: write-set log overflow; raise LogCap or shorten the transaction")
	}
	t.AppendLog(logWrites, rec, v)
	t.writes = append(t.writes, RecEntry{rec, v})
	t.writeVer[rec] = v
	if hw != nil && hw.Filter {
		ctx.LoadSetMark(rec, hw.gran)
	}
	if hw != nil && hw.FilterWrites {
		ctx.LoadSetMarkP(writePlane, rec, subBlock)
	}
}

// undoLogAndStore logs the old value of addr and performs the in-place
// update (eager version management, §4). With FilterWrites, logging
// happens once per 16-byte sub-block (both words captured) and a
// write-plane mark on the sub-block elides the duplicates.
func (t *Thread) undoLogAndStore(addr, val uint64) {
	if len(t.undo) >= LogCap-1 {
		panic("stm: undo log overflow; raise LogCap or shorten the transaction")
	}
	ctx := t.ctx
	prev := ctx.SetCat(telemetry.WrBar)

	if t.hw != nil && t.hw.FilterWrites {
		_, logged := ctx.LoadTestMarkP(writePlane, addr, subBlock)
		ctx.Exec(1)
		if logged {
			ctx.Telem().Inc(telemetry.UndoLogsSkipped)
		} else {
			// First store to this sub-block: capture both of its words so
			// later (filtered) stores to either are covered by replay.
			sub := addr &^ (subBlock - 1)
			m := ctx.Machine().Mem
			for off := uint64(0); off < subBlock; off += 8 {
				w := sub + off
				if !m.Allocated(w) {
					continue // padding word outside any allocation
				}
				t.appendUndo(w, ctx.Load(w))
			}
			ctx.LoadSetMarkP(writePlane, addr, subBlock)
		}
	} else {
		t.appendUndo(addr, ctx.Load(addr))
	}

	ctx.SetCat(telemetry.App)
	ctx.Store(addr, val)
	ctx.SetCat(prev)
}

// appendUndo writes one undo entry to the simulated log and the mirror.
func (t *Thread) appendUndo(addr, old uint64) {
	t.AppendLog(logUndo, addr, old)
	t.undo = append(t.undo, UndoEntry{addr, old})
}
