package stm

import (
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
	accel Accel

	// Go-side mirrors of the simulated write set and undo log.
	writes []RecEntry
	undo   []UndoEntry

	writeVer map[uint64]uint64 // rec -> version at acquire, for validation
}

var (
	_ tm.Thread   = (*Thread)(nil)
	_ tm.Protocol = (*Thread)(nil)
)

// ModeAddr returns the simulated address of the descriptor's mode word,
// which the HASTM barriers test ("test [txndesc + mode], #aggressive").
func (t *Thread) ModeAddr() uint64 { return t.desc + descMode }

// --- tm.Protocol: eager version management ------------------------------------

// BeginAttempt rewinds the three logs and runs the acceleration hook.
func (t *Thread) BeginAttempt(attempt int) {
	t.writes = t.writes[:0]
	t.undo = t.undo[:0]
	clear(t.writeVer)
	t.BeginLogs(attempt)
	if t.accel != nil {
		t.accel.Begin(t, attempt)
	}
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

// EndAttempt closes the acceleration hook's view of the attempt.
func (t *Thread) EndAttempt(committed bool) {
	if t.accel != nil {
		t.accel.End(t, committed)
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

// validate checks the read set. With acceleration, the mark counter can
// prove the read set intact without touching it (Fig 6). On failure the
// returned cause distinguishes a real conflict from an aggressive-mode
// transaction that merely lost the ability to validate (no read set to
// fall back on).
func (t *Thread) validate(atCommit bool) (bool, telemetry.AbortCause) {
	if t.accel != nil {
		skipFull, ok := t.accel.PreValidate(t, atCommit)
		if !ok {
			return false, telemetry.AbortAggressive
		}
		if skipFull {
			t.ctx.Telem().Inc(telemetry.FastValidations)
			t.emitValidate("fast")
			return true, 0
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
	if t.accel != nil {
		t.accel.OnPartialRollback(t)
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
// table (cache-line-granularity conflict detection).
func (t *Thread) Load(addr uint64) uint64 {
	t.RequireTxn()
	lineAccel := t.accel != nil && t.cfg.Granularity == tm.LineGranularity
	if lineAccel {
		if v, ok := t.accel.FilterData(t, addr); ok {
			t.ctx.Telem().Inc(telemetry.FilteredReads)
			return v
		}
	}
	t.recordReadBarrier(t.RecordFor(addr, telemetry.RdBar))
	if lineAccel {
		// Trailing loadsetmark_granularity64 both marks the data line and
		// performs the data load (Fig 7).
		return t.accel.MarkData(t, addr)
	}
	return t.AppLoad(addr)
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

// recordReadBarrier is stmRdBar (Fig 3/4) with the HASTM fast paths
// (Fig 5/8) plugged in via the accel hooks.
func (t *Thread) recordReadBarrier(rec uint64) {
	ctx := t.ctx
	prev := ctx.SetCat(telemetry.RdBar)
	defer ctx.SetCat(prev)

	var v uint64
	if t.accel != nil {
		// Object granularity filters on the record (Fig 5/8); line
		// granularity does so only under the §5 two-level option ("the
		// read barrier slow path checks whether the transaction record is
		// marked before executing the rest of the slow path") — the hook
		// knows which applies.
		if t.accel.FilterRecord(t, rec) {
			ctx.Exec(1) // jnae done
			t.ctx.Telem().Inc(telemetry.FilteredReads)
			return
		}
		v = t.accel.LoadRecordForRead(t, rec)
		ctx.Exec(2) // test versionmask + jz
	} else {
		v = ctx.Load(rec)
		ctx.Exec(2) // cmp txndesc + jeq
		if v == t.desc {
			return
		}
		ctx.Exec(2) // test versionmask + jz
	}

	if !IsVersion(v) {
		if v == t.desc {
			return // recursion: we already own it exclusively
		}
		v = t.HandleContention(rec)
	}

	t.ctx.Telem().Inc(telemetry.UnfilteredReads)
	if t.accel == nil || t.accel.ShouldLogRead(t) {
		t.LogRead(rec, v)
	} else {
		t.ctx.Telem().Inc(telemetry.ReadLogsSkipped)
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
// with a CAS, logging the displaced version in the write set.
func (t *Thread) recordWriteBarrier(rec uint64) {
	ctx := t.ctx
	prev := ctx.SetCat(telemetry.WrBar)
	defer ctx.SetCat(prev)

	if t.accel != nil && t.accel.FilterWriteOwned(t, rec) {
		// Plane-1 mark intact: the record is still exclusively ours.
		t.ctx.Telem().Inc(telemetry.FilteredWrites)
		return
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
	if t.accel != nil {
		t.accel.MarkRecordOnWrite(t, rec)
		t.accel.MarkWriteOwned(t, rec)
	}
}

// undoLogAndStore logs the old value of addr and performs the in-place
// update (eager version management, §4). With the write-filtering
// extension active, logging happens once per 16-byte sub-block (both
// words captured) and plane-1 marks elide the duplicates.
func (t *Thread) undoLogAndStore(addr, val uint64) {
	if len(t.undo) >= LogCap-1 {
		panic("stm: undo log overflow; raise LogCap or shorten the transaction")
	}
	ctx := t.ctx
	prev := ctx.SetCat(telemetry.WrBar)

	if t.accel != nil && t.accel.UndoFilterEnabled() {
		if t.accel.FilterUndo(t, addr) {
			t.ctx.Telem().Inc(telemetry.UndoLogsSkipped)
		} else {
			// First store to this sub-block: capture both of its words so
			// later (filtered) stores to either are covered by replay.
			sub := addr &^ 15
			m := ctx.Machine().Mem
			for off := uint64(0); off < 16; off += 8 {
				w := sub + off
				if !m.Allocated(w) {
					continue // padding word outside any allocation
				}
				t.appendUndo(w, ctx.Load(w))
			}
			t.accel.MarkUndo(t, addr)
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
