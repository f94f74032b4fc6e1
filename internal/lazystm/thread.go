package lazystm

import (
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/stm"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// logWb is the write buffer's slot among the Base's simulated logs.
const logWb = 1

// wbEntry is one write-buffer entry: the buffered (address, value) pair,
// the address's transaction record (precomputed so object-granularity
// stores keep their header record), and the index of the previous buffered
// write to the same address (-1 if none) — the chain savepoint rollback
// walks to restore the latest-write index.
type wbEntry struct {
	Addr uint64
	Val  uint64
	Rec  uint64
	Prev int
}

// writerRestart is the MVCC restart signal thrown when a snapshot attempt's
// first store finds the snapshot stale: the reads cannot carry over into
// writer mode, so the attempt restarts pinned to the lazy protocol. Boxed
// once so throwing it allocates nothing.
var writerRestart interface{} = tm.RestartSignal{
	Event: telemetry.EvWriterRestart,
	Cause: "snapshot-stale",
}

// Thread is one core's deferred-update transactional thread: the lazy
// write-buffer protocol (and its MVCC snapshot variant) under the shared
// tm.Engine. It implements tm.Thread, tm.Txn and tm.Protocol.
type Thread struct {
	stm.Base
	sys *System

	// Go-side mirror of the simulated write buffer.
	wb    []wbEntry
	wbIdx map[uint64]int // addr -> index of its latest wb entry

	// Commit-protocol state: records acquired this commit in acquisition
	// (ascending) order with their displaced versions, plus the rec->version
	// map the sandboxed validation consults for self-owned records.
	acq        []stm.RecEntry
	acqVer     map[uint64]uint64
	recScratch []uint64

	// MVCC per-attempt state. snapshot is true while the attempt has not
	// stored: reads validate against the begin-time snapTS instead of being
	// revalidated at commit. histServed records that at least one read came
	// from the version history (so the attempt can no longer upgrade in
	// place — history values are not current memory). writerPinned persists
	// across the remaining attempts of one top-level transaction after a
	// writer restart, bounding restarts to one per transaction.
	snapshot     bool
	snapTS       uint64
	histServed   bool
	writerPinned bool
}

var (
	_ tm.Thread   = (*Thread)(nil)
	_ tm.Protocol = (*Thread)(nil)
)

// Snapshot reports whether the current attempt is still on the MVCC
// snapshot read path (read-only so far).
func (t *Thread) Snapshot() bool { return t.snapshot }

// --- tm.Protocol: deferred version management ---------------------------------

// BeginAttempt rewinds the logs and, under MVCC, fixes the attempt's
// snapshot timestamp with one clock load.
func (t *Thread) BeginAttempt(attempt int) {
	if attempt == 0 {
		t.writerPinned = false
	}
	t.wb = t.wb[:0]
	clear(t.wbIdx)
	t.acq = t.acq[:0]
	clear(t.acqVer)
	t.histServed = false
	t.snapshot = t.sys.mvcc && !t.writerPinned
	t.BeginLogs(attempt)
	if t.snapshot {
		ctx := t.Ctx()
		prev := ctx.SetCat(telemetry.Commit)
		t.snapTS = ctx.Load(t.sys.clock)
		ctx.Exec(1)
		ctx.SetCat(prev)
	}
}

// Commit runs the three-phase commit protocol of the package comment. An
// MVCC read-only commit skips all of it: every read was served from one
// committed snapshot, so the attempt is already serialized at its
// begin-time timestamp — no validation, no clock traffic, no abort path.
func (t *Thread) Commit() (bool, telemetry.AbortCause) {
	ctx := t.Ctx()
	if t.snapshot {
		prev := ctx.SetCat(telemetry.Commit)
		ctx.Exec(8) // commit bookkeeping
		ctx.SetCat(prev)
		return true, 0
	}

	// Phase 1: acquire every written record, ascending.
	prev := ctx.SetCat(telemetry.WrBar)
	defer ctx.SetCat(prev)
	if !t.acquireWriteRecs() {
		t.releaseAcquired(false)
		return false, telemetry.AbortLockConflict
	}
	ctx.Telem().ObserveMax(telemetry.WriteSetHWM, uint64(len(t.acq)))

	// Phase 2: sandboxed validation, before any data word changes.
	ctx.SetCat(telemetry.Validate)
	if !t.ValidateReads(t.acqVer) {
		t.releaseAcquired(false)
		return false, telemetry.AbortValidation
	}

	// Phase 3: write back and release.
	ctx.SetCat(telemetry.Commit)
	var wv uint64
	if t.sys.mvcc && len(t.wb) > 0 {
		wv = t.advanceClock()
	}
	t.writeBack(wv)
	t.releaseAcquired(true)
	ctx.Exec(8) // commit bookkeeping
	return true, 0
}

// ObserveSetSizes raises the log-pressure high-water marks. Deferred
// updates have no undo log; the write buffer has its own gauge.
func (t *Thread) ObserveSetSizes() (reads, writes, undo int) {
	b := t.Ctx().Telem()
	b.ObserveMax(telemetry.ReadSetHWM, uint64(len(t.Reads)))
	b.ObserveMax(telemetry.WriteBufferHWM, uint64(len(t.wb)))
	return len(t.Reads), len(t.wb), 0
}

// ReadsConsistent: snapshot-mode reads are consistent by construction (each
// was served from a single committed snapshot), so a snapshot attempt's
// panic is always genuinely foreign. A lazy reader can be a zombie between
// validations; the body never holds records, so a changed version is never
// self-inflicted.
func (t *Thread) ReadsConsistent() bool {
	return t.snapshot || t.ReadsConsistentWith(t.acqVer)
}

// WaitForChange skips the wait after a history-served read: a watched
// location already changed since the snapshot, and waiting for a change
// that has happened would deadlock, so take the (permitted) spurious wakeup.
func (t *Thread) WaitForChange() {
	if !t.histServed {
		t.Base.WaitForChange()
	}
}

// acquireWriteRecs CASes every buffered address's record from shared to
// self-owned, in ascending record order (two committers can never deadlock
// on each other's records). A record that stays foreign-owned past the
// contention policy's bound fails the acquisition; the caller releases
// whatever was acquired.
func (t *Thread) acquireWriteRecs() bool {
	ctx := t.Ctx()
	t.recScratch = t.recScratch[:0]
	for _, e := range t.wb {
		t.recScratch = append(t.recScratch, e.Rec)
	}
	sortU64(t.recScratch)
	// The commit-time sort of the write set is real work: charge it
	// proportionally to the buffer it sorts.
	ctx.Exec(uint64(2 * len(t.wb)))
	var last uint64
	for i, rec := range t.recScratch {
		if i > 0 && rec == last {
			continue
		}
		last = rec
		if !t.acquireRec(rec) {
			return false
		}
	}
	return true
}

func (t *Thread) acquireRec(rec uint64) bool {
	ctx := t.Ctx()
	v := ctx.Load(rec)
	ctx.Exec(2) // test versionmask + jz
	for {
		if !stm.IsVersion(v) {
			// Not HandleContention: a failed commit-time acquisition must
			// first release the records it already holds (restoring their
			// original versions), which a panic would skip.
			var ok bool
			if v, ok = t.WaitShared(rec); !ok {
				return false
			}
		}
		ok, cur := ctx.CAS(rec, v, t.Desc())
		if ok {
			break
		}
		ctx.Exec(1)
		v = cur
	}
	t.acq = append(t.acq, stm.RecEntry{Rec: rec, Ver: v})
	t.acqVer[rec] = v
	return true
}

// periodicValidate bounds zombie execution on the lazy read path: every
// ValidateEvery read barriers the read set is re-validated. Snapshot reads
// are consistent by construction and never come here.
func (t *Thread) periodicValidate() {
	if !t.ValidationDue() {
		return
	}
	ctx := t.Ctx()
	prev := ctx.SetCat(telemetry.Validate)
	ok := t.ValidateReads(t.acqVer) // acqVer is empty during the body: it holds no records
	ctx.SetCat(prev)
	if !ok {
		panic(tm.AbortSignal{Cause: telemetry.AbortValidation})
	}
}

// advanceClock CAS-increments the global commit clock, returning this
// commit's timestamp.
func (t *Thread) advanceClock() uint64 {
	ctx := t.Ctx()
	for {
		s := ctx.Load(t.sys.clock)
		if ok, _ := ctx.CAS(t.sys.clock, s, s+1); ok {
			return s + 1
		}
		ctx.Exec(1)
	}
}

// writeBack publishes the buffered values: the latest value per address, in
// the buffer's append order (NEVER the Go map's iteration order — the
// write-back sequence must be deterministic). Under MVCC each address's
// displaced value and timestamp go into the version history inside an
// architectural step BEFORE the data store, so a concurrent snapshot read
// that sees the new value is guaranteed to also see the new timestamp.
func (t *Thread) writeBack(wv uint64) {
	ctx := t.Ctx()
	sys := t.sys
	wbLog := t.LogAddr(logWb)
	for i, e := range t.wb {
		if t.wbIdx[e.Addr] != i {
			continue // superseded by a later buffered write
		}
		ctx.Load(wbLog + uint64(i)*stm.EntryBytes)     // entry addr word
		ctx.Load(wbLog + uint64(i)*stm.EntryBytes + 8) // entry value word
		if sys.mvcc {
			addr := e.Addr
			ctx.Step(func(m *sim.Machine) uint64 {
				h := sys.historyOf(addr)
				h.push(histVersion{ts: h.lastTS, val: m.Mem.Load(addr)})
				h.lastTS = wv
				return 2
			})
		}
		ctx.Store(e.Addr, e.Val)
		ctx.Exec(1)
	}
}

// releaseAcquired returns every record acquired by this commit to the
// shared state, newest first. A committed release publishes the next
// version; a failed commit restores the ORIGINAL displaced version — no
// data changed under the record, so readers that validated against it stay
// valid, and nobody can have logged the record while it was owned.
func (t *Thread) releaseAcquired(committed bool) {
	ctx := t.Ctx()
	for i := len(t.acq) - 1; i >= 0; i-- {
		e := t.acq[i]
		if committed {
			ctx.Store(e.Rec, stm.NextVersion(e.Ver))
		} else {
			ctx.Store(e.Rec, e.Ver)
		}
		ctx.Exec(2)
	}
	t.acq = t.acq[:0]
	clear(t.acqVer)
}

// RollbackAll abandons the attempt's private state. Nothing reached shared
// memory (any commit-time acquisitions were already released by the failed
// commit itself), so rollback is pure log truncation.
func (t *Thread) RollbackAll() {
	t.Reads = t.Reads[:0]
	t.wb = t.wb[:0]
	clear(t.wbIdx)
}

// Savepoint marks a nested transaction's rollback point. Deferred updates
// need no undo positions — only the log lengths and the snapshot-read flag.
func (t *Thread) Savepoint() tm.Savepoint {
	return tm.Savepoint{Reads: len(t.Reads), Writes: len(t.wb), Served: t.histServed}
}

// RollbackTo reverts the logs to a nested transaction's entry point. The
// write buffer unwinds newest-first, restoring each address's latest-write
// index via the Prev chain. An in-place snapshot->writer upgrade that
// happened inside the nested block is deliberately NOT reverted: staying in
// writer mode is always correct (it validates at commit), merely less
// optimistic.
func (t *Thread) RollbackTo(sp tm.Savepoint) {
	ctx := t.Ctx()
	prev := ctx.SetCat(telemetry.Commit)
	wbLog := t.LogAddr(logWb)
	for i := len(t.wb) - 1; i >= sp.Writes; i-- {
		e := t.wb[i]
		ctx.Load(wbLog + uint64(i)*stm.EntryBytes)
		ctx.Exec(2)
		if e.Prev >= 0 {
			t.wbIdx[e.Addr] = e.Prev
		} else {
			delete(t.wbIdx, e.Addr)
		}
	}
	t.wb = t.wb[:sp.Writes]
	t.Reads = t.Reads[:sp.Reads]
	t.histServed = sp.Served
	ctx.SetCat(prev)
}

// --- Barriers ---------------------------------------------------------------

// Load transactionally reads the word at addr (line-granularity record).
func (t *Thread) Load(addr uint64) uint64 {
	t.RequireTxn()
	if v, ok := t.bufferLookup(addr); ok {
		return v
	}
	return t.loadShared(t.RecordFor(addr, telemetry.RdBar), addr)
}

// LoadObj transactionally reads the field at offset off of the object
// whose header record is at base (see stm.Base.ObjectField).
func (t *Thread) LoadObj(base, off uint64) uint64 {
	t.RequireTxn()
	if !t.ObjectField("LoadObj", off) {
		return t.Load(base + off)
	}
	if v, ok := t.bufferLookup(base + off); ok {
		return v
	}
	return t.loadShared(base, base+off)
}

// bufferLookup is the read-through-own-writes fast path: a load whose
// address has a buffered store returns the latest buffered value without
// touching the record.
func (t *Thread) bufferLookup(addr uint64) (uint64, bool) {
	ctx := t.Ctx()
	prev := ctx.SetCat(telemetry.RdBar)
	ctx.Exec(2) // buffer-index hash + branch
	i, ok := t.wbIdx[addr]
	var v uint64
	if ok {
		v = ctx.Load(t.LogAddr(logWb) + uint64(i)*stm.EntryBytes + 8)
		ctx.Telem().Inc(telemetry.WriteBufferHits)
	}
	ctx.SetCat(prev)
	return v, ok
}

// loadShared is the shared-memory read barrier: snapshot-validated under
// MVCC snapshot mode, logged for commit-time revalidation otherwise.
func (t *Thread) loadShared(rec, addr uint64) uint64 {
	if t.snapshot {
		return t.snapshotLoad(rec, addr)
	}
	ctx := t.Ctx()
	prev := ctx.SetCat(telemetry.RdBar)
	v := ctx.Load(rec)
	ctx.Exec(2) // test versionmask + jz
	if !stm.IsVersion(v) {
		v = t.HandleContention(rec)
	}
	t.Ctx().Telem().Inc(telemetry.UnfilteredReads)
	t.LogRead(rec, v)
	t.periodicValidate()
	ctx.SetCat(prev)
	return t.AppLoad(addr)
}

// snapshotLoad is the MVCC snapshot read barrier. It never aborts on
// contention: a locked record means a writer is inside its finite commit
// section, so the reader waits it out (writers never wait on readers, so
// the wait cannot deadlock). The loaded value is then checked against the
// location's last-writer timestamp: within the snapshot it is accepted
// (and logged, keeping an in-place upgrade possible); past the snapshot
// the read is served from the version history instead.
func (t *Thread) snapshotLoad(rec, addr uint64) uint64 {
	ctx := t.Ctx()
	prev := ctx.SetCat(telemetry.RdBar)
	v := ctx.Load(rec)
	ctx.Exec(2)
	if !stm.IsVersion(v) {
		wait := tm.NewBackoff(ctx.ID())
		for !stm.IsVersion(v) {
			wait.Wait(ctx)
			v = ctx.Load(rec)
			ctx.Exec(2)
		}
	}
	ctx.SetCat(prev)
	val := t.AppLoad(addr)

	sys := t.sys
	snapTS := t.snapTS
	served, miss := false, false
	vprev := ctx.SetCat(telemetry.Validate)
	ctx.Step(func(m *sim.Machine) uint64 {
		h := sys.hist[addr]
		if h == nil || h.lastTS <= snapTS {
			return 4
		}
		for i := h.n - 1; i >= 0; i-- {
			if v := h.at(i); v.ts <= snapTS {
				val = v.val
				served = true
				return uint64(4 + 2*(h.n-i))
			}
		}
		miss = true
		return uint64(4 + 2*h.n)
	})
	ctx.SetCat(vprev)

	b := ctx.Telem()
	b.Inc(telemetry.SnapshotReads)
	if miss {
		// The version this snapshot needs was pruned from the history: the
		// one abort a snapshot attempt can take. Counted so tests can
		// assert the read-only never-abort guarantee as "this stays zero".
		b.Inc(telemetry.SnapshotAborts)
		panic(tm.AbortSignal{Cause: telemetry.AbortValidation})
	}
	if served {
		b.Inc(telemetry.VersionHistoryReads)
		t.histServed = true
		return val
	}
	t.Ctx().Telem().Inc(telemetry.UnfilteredReads)
	t.LogRead(rec, v)
	return val
}

// Store transactionally writes the word at addr (deferred: buffered until
// commit).
func (t *Thread) Store(addr, val uint64) {
	t.RequireTxn()
	t.bufferWrite(t.RecordFor(addr, telemetry.WrBar), addr, val)
}

// StoreObj transactionally writes a field of the object at base.
func (t *Thread) StoreObj(base, off, val uint64) {
	t.RequireTxn()
	if !t.ObjectField("StoreObj", off) {
		t.Store(base+off, val)
		return
	}
	t.bufferWrite(base, base+off, val)
}

// bufferWrite appends a deferred store to the write buffer. The first
// store of an MVCC snapshot attempt first upgrades the attempt to writer
// mode (or restarts it). No record is touched here — acquisition is
// commit-time work.
func (t *Thread) bufferWrite(rec, addr, val uint64) {
	if t.snapshot {
		t.upgradeToWriter()
	}
	if len(t.wb) >= stm.LogCap {
		panic("lazystm: write-buffer overflow; raise stm.LogCap or shorten the transaction")
	}
	ctx := t.Ctx()
	prev := ctx.SetCat(telemetry.WrBar)
	t.AppendLog(logWb, addr, val)
	prevIdx := -1
	if i, ok := t.wbIdx[addr]; ok {
		prevIdx = i
	}
	t.wb = append(t.wb, wbEntry{Addr: addr, Val: val, Rec: rec, Prev: prevIdx})
	t.wbIdx[addr] = len(t.wb) - 1
	ctx.SetCat(prev)
}

// upgradeToWriter converts a snapshot attempt into a lazy writer at its
// first store. The upgrade is valid only when the snapshot is provably
// still current: no read came from the version history, and every logged
// read record still holds its logged version — then the snapshot IS the
// present, and the logged reads carry over as an ordinary lazy read set.
// Otherwise the attempt restarts pinned to writer mode.
func (t *Thread) upgradeToWriter() {
	ctx := t.Ctx()
	prev := ctx.SetCat(telemetry.Validate)
	ok := !t.histServed
	if ok {
		ctx.Exec(2)
		for _, e := range t.Reads {
			cur := ctx.Load(e.Rec)
			ctx.Exec(2)
			if cur != e.Ver {
				ok = false
				break
			}
		}
	}
	ctx.SetCat(prev)
	if !ok {
		t.writerPinned = true
		ctx.Telem().Inc(telemetry.MVCCWriterRestarts)
		panic(writerRestart)
	}
	t.snapshot = false
	ctx.Telem().Inc(telemetry.MVCCUpgrades)
	ctx.EmitTxn(telemetry.TxnEvent{Txn: t.TxnSeq(), Retry: t.Attempt(),
		Kind: telemetry.EvUpgrade, Reads: len(t.Reads)})
}

// sortU64 is an allocation-free insertion sort for the commit-time record
// slice; write sets are tens of entries and mostly pre-sorted (allocation
// order), where insertion sort is near-linear.
func sortU64(s []uint64) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}
