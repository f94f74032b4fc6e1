package native

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"time"

	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// readEntry is one validated read: the stripe it hit and the (even)
// version observed. Doubles as a retry watch-set entry and as a stripe a
// commit has write-locked with the version to restore if it aborts.
type readEntry struct {
	ix  int
	ver uint64
}

// writeEntry is one buffered store. prev chains to the previous entry for
// the same address (or -1), so rolling a nested transaction back can
// point the write index back at it.
type writeEntry struct {
	addr uint64
	val  uint64
	prev int
}

// undoEntry is one eager store by an irrevocable transaction.
type undoEntry struct {
	addr uint64
	old  uint64
}

// Thread is a host goroutine's transaction handle: the TL2 protocol under
// the shared tm.Engine, plus the native-only containment, chaos and
// watchdog wrapper around the engine call. It implements tm.Thread, tm.Txn
// and tm.Protocol; one handle must never be shared by two goroutines at the
// same time.
type Thread struct {
	tm.Engine
	sys      *System
	id       int
	lockWord uint64 // id<<1 | 1: this thread's stripe write-lock value
	tb       *telemetry.Block

	rv        uint64 // read version: clock sample at attempt begin
	lastStamp uint64 // serialization stamp of the last committed block

	reads  []readEntry
	writes []writeEntry
	windex writeIndex  // addr -> newest writes entry
	watch  []readEntry // retry wait set, accumulated across alternatives

	// Commit-time scratch, reused across commits: the write set's stripes
	// sorted, then the distinct ones as acquired (so ascending by ix).
	stripeIdxs []int
	owned      []readEntry

	// Irrevocable mode writes eagerly; undo supports nested rollback and
	// the body-error path, touched collects stripes to bump at commit.
	undo    []undoEntry
	touched []int

	// opSeq is odd while the thread is inside a top-level Atomic; the
	// watchdog reads it to tell a stuck transaction from an idle thread,
	// and sums commits (this thread's, revocable or irrevocable) so that no
	// commit writes a line another thread reads.
	opSeq   atomic.Uint64
	commits atomic.Uint64
	// boRng seeds Backoff's jitter; chaos is the thread's fault
	// stream (nil when the plane is disabled).
	boRng uint64
	chaos *chaosThread
}

var (
	_ tm.Thread   = (*Thread)(nil)
	_ tm.Protocol = (*Thread)(nil)
)

// ID returns the goroutine slot this handle was created for.
func (t *Thread) ID() int { return t.id }

// Stamp returns the serialization stamp of the most recently completed
// atomic block: its TL2 write version, or its read version if it wrote
// nothing (a read-only transaction serializes at its snapshot).
func (t *Thread) Stamp() uint64 { return t.lastStamp }

// spinLimit bounds how long a read or a commit-time acquire waits on a
// locked stripe before aborting, per the contention policy.
func (t *Thread) spinLimit() int {
	switch t.sys.cfg.TM.Policy {
	case tm.AbortSelf:
		return 0
	case tm.Wait:
		// Commit sections are short and stripes are acquired in sorted
		// order (no cycles), so a long bound keeps "wait" honest without
		// risking livelock-forever under a stalled OS thread.
		return 1 << 20
	default: // tm.PoliteBackoff
		return 128
	}
}

// backoffCapShift caps Backoff's exponential window at
// 1µs << 6 = 64µs: long enough to drain any commit section, short enough
// that a transiently unlucky thread recovers quickly.
const backoffCapShift = 6

// Backoff yields between failed attempts; real time replaces the
// simulator's charged backoff cycles. Past the Gosched grace strikes the
// sleep is drawn uniformly from the upper half of a capped exponential
// window — the seeded per-thread jitter keeps two threads that aborted on
// the same stripe from re-colliding in lockstep, the same reason
// tm.Backoff jitters the simulated schemes.
func (t *Thread) Backoff() {
	n := t.Strikes()
	if n < 4 {
		runtime.Gosched()
		return
	}
	shift := n - 4
	if shift > backoffCapShift {
		shift = backoffCapShift
	}
	window := uint64(time.Microsecond) << shift
	time.Sleep(time.Duration(window/2 + t.backoffRand()%(window/2+1)))
}

// backoffRand steps the thread's xorshift64 jitter stream.
func (t *Thread) backoffRand() uint64 {
	x := t.boRng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	t.boRng = x
	return x
}

// spinYield cooperates with the scheduler while spinning on a locked
// stripe: Gosched on most iterations, a real timed sleep periodically so
// a descheduled holder gets CPU even when every P is busy spinning
// (Threads > GOMAXPROCS), and a watchdog check so a permanently stuck
// holder unwinds the spinner instead of pinning it forever.
func (t *Thread) spinYield(spins int) {
	if spins&(1<<10-1) == 0 && t.sys.failed.Load() != nil {
		panic(stopSignal{})
	}
	if spins&(1<<12-1) == 0 {
		time.Sleep(time.Microsecond)
		return
	}
	runtime.Gosched()
}

// --- Atomic: the native wrapper around the engine -----------------------------

// Atomic runs body as a transaction on the shared engine (re-executing on
// conflict aborts, escalating to serial irrevocable mode once the retry
// budget is spent) inside the native containment rail.
//
// Foreign panics do not escape: contain restores any stripe locks and the
// serial lock the transaction held, resets the thread, and returns the
// panic as a *TxnFault error (arena exhaustion as ErrArenaExhausted, a
// watchdog trip as the NativeProgressViolation), matching the simulator's
// PR 5 containment rule.
func (t *Thread) Atomic(body func(tm.Txn) error) (err error) {
	if t.InTxn() {
		return t.Engine.Atomic(body)
	}
	t.opSeq.Add(1)
	defer t.opSeq.Add(1)
	defer t.contain(&err)
	return t.Engine.Atomic(body)
}

// chaosAt fires the thread's pending injections for point p, if any;
// reports whether a spurious abort was injected.
func (t *Thread) chaosAt(p chaosPoint) bool {
	if t.chaos == nil {
		return false
	}
	fired, abort := t.chaos.at(p)
	for i := 0; i < fired; i++ {
		t.tb.Inc(telemetry.ChaosInjected)
	}
	return abort
}

// contain is Atomic's recovery rail: it intercepts everything except
// engine signals (which never escape the engine — one here is an engine bug
// and re-panics), repairs shared state — stripe locks back to pre-lock
// versions, the irrevocable undo log replayed and the serial lock released
// (Engine.Unwind) — and converts the panic into the transaction's error.
func (t *Thread) contain(err *error) {
	r := recover()
	if r == nil {
		return
	}
	t.releaseOwnedIfHeld()
	wasIrrevocable := t.Irrevocable()
	t.Unwind()
	switch v := r.(type) {
	case stopSignal:
		if *err = t.sys.CheckHealth(); *err == nil {
			*err = &NativeProgressViolation{Kind: "commit-stall", Holder: t.id, Stripe: -1}
		}
	case arenaExhausted:
		*err = fmt.Errorf("%w (allocation of %d bytes, arena %d bytes)", ErrArenaExhausted, v.need, v.arena)
	default:
		if tm.IsEngineSignal(r) {
			panic(r)
		}
		t.tb.Inc(telemetry.ContainedFaults)
		*err = &TxnFault{
			Thread:      t.id,
			Irrevocable: wasIrrevocable,
			Value:       fmt.Sprint(r),
			Stack:       string(debug.Stack()),
		}
	}
}

// releaseOwnedIfHeld restores the pre-lock version of every stripe the
// thread still holds. After a completed commit or abort the stripes no
// longer carry the thread's lock word, so stale owned entries are inert.
func (t *Thread) releaseOwnedIfHeld() {
	for _, o := range t.owned {
		sp := &t.sys.stripes[o.ix]
		if sp.v.Load() == t.lockWord {
			sp.v.Store(o.ver)
		}
	}
}

// --- tm.Protocol: TL2 ---------------------------------------------------------

// BeginAttempt clears the attempt's logs and, for a revocable attempt,
// samples the read version. An irrevocable attempt (invariant 5) holds the
// serial lock exclusively and runs with eager stores, an undo log for
// nested rollback, and no conflict abort path.
func (t *Thread) BeginAttempt(attempt int) {
	if attempt == 0 {
		t.watch = t.watch[:0]
		if t.chaos != nil {
			t.chaos.beginTxn()
		}
	}
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
	t.undo = t.undo[:0]
	if t.sys.failed.Load() != nil {
		panic(stopSignal{})
	}
	if t.Irrevocable() {
		t.touched = t.touched[:0]
		// Chaos point: the serial lock is held exclusively — a stall here
		// drains every revocable attempt against the irrevocable window.
		t.chaosAt(pointIrrevocable)
		return
	}
	t.rv = t.sys.clock.Load()
	t.windex.reset()
	t.tb.Inc(telemetry.CautiousAttempts)
}

// EndAttempt counts the commit for the watchdog; the logs are reset at the
// next begin.
func (t *Thread) EndAttempt(committed bool) {
	if committed {
		t.commits.Add(1)
	}
}

// ObserveSetSizes raises the log-pressure high-water marks.
func (t *Thread) ObserveSetSizes() (reads, writes, undo int) {
	reads, writes, undo = len(t.reads), len(t.writes), len(t.undo)
	t.tb.ObserveMax(telemetry.ReadSetHWM, uint64(reads))
	t.tb.ObserveMax(telemetry.WriteSetHWM, uint64(writes))
	t.tb.ObserveMax(telemetry.UndoLogHWM, uint64(undo))
	return reads, writes, undo
}

// ReadsConsistent is always true: TL2 reads are opaque — validated against
// rv the moment they happen (invariant 2) — so a body never runs on an
// inconsistent read set and a foreign panic is never a zombie effect. It
// propagates to contain, which turns it into a *TxnFault.
func (t *Thread) ReadsConsistent() bool { return true }

// WatchReadsFrom parks reads[n:] in the retry wait set.
func (t *Thread) WatchReadsFrom(n int) int {
	t.watch = append(t.watch, t.reads[n:]...)
	return len(t.watch)
}

// WaitForChange blocks on the wait set. The engine calls it after the
// shared lock is released, or an escalated transaction could never drain
// the waiter.
func (t *Thread) WaitForChange() {
	t.chaosAt(pointWait)
	t.sys.waitForChange(t, t.watch)
}

// EnterLadder takes the serial RWMutex: shared for a revocable attempt,
// exclusive — draining every revocable attempt — for an irrevocable one.
func (t *Thread) EnterLadder(irrevocable bool) {
	if irrevocable {
		t.sys.serial.Lock()
	} else {
		t.sys.serial.RLock()
	}
}

// ExitLadder releases the side EnterLadder took.
func (t *Thread) ExitLadder(irrevocable bool) {
	if irrevocable {
		t.sys.serial.Unlock()
	} else {
		t.sys.serial.RUnlock()
	}
}

// --- The TL2 data path ------------------------------------------------------

// Load transactionally reads the word at addr: own buffered write if any,
// else a version-stable read no newer than rv (invariant 2).
func (t *Thread) Load(addr uint64) uint64 {
	t.RequireTxn()
	if t.Irrevocable() {
		return t.sys.m.LoadAtomic(addr)
	}
	if len(t.writes) != 0 {
		if i := t.windex.lookup(t.writes, addr); i >= 0 {
			return t.writes[i].val
		}
	}
	ix := t.sys.stripeIndex(addr)
	sp := &t.sys.stripes[ix]
	spins := 0
	for {
		v1 := sp.v.Load()
		if v1&1 == 1 {
			// Write-locked by a committer (never by us: our writes are
			// buffered until commit). Wait per policy, then give up.
			spins++
			if spins > t.spinLimit() {
				panic(tm.AbortSignal{Cause: telemetry.AbortLockConflict})
			}
			t.spinYield(spins)
			continue
		}
		if v1 > t.rv {
			// The stripe committed past our snapshot: reading it would
			// tear the read set. TL2 aborts and re-runs with a fresh rv.
			panic(tm.AbortSignal{Cause: telemetry.AbortValidation})
		}
		val := t.sys.m.LoadAtomic(addr)
		if sp.v.Load() != v1 {
			continue // changed underneath the data load; re-sample
		}
		t.reads = append(t.reads, readEntry{ix: ix, ver: v1})
		t.tb.Inc(telemetry.ReadsLogged)
		t.tb.Inc(telemetry.UnfilteredReads)
		return val
	}
}

// Store buffers the write; it becomes visible only at commit.
func (t *Thread) Store(addr, val uint64) {
	t.RequireTxn()
	if t.Irrevocable() {
		t.undo = append(t.undo, undoEntry{addr: addr, old: t.sys.m.LoadAtomic(addr)})
		t.touched = append(t.touched, t.sys.stripeIndex(addr))
		t.sys.m.StoreAtomic(addr, val)
		return
	}
	prev := t.windex.set(t.writes, addr, len(t.writes))
	t.writes = append(t.writes, writeEntry{addr: addr, val: val, prev: prev})
}

// LoadObj reads field off of the object at base. Conflict detection is by
// stripe, so object and line granularity coincide on this backend.
func (t *Thread) LoadObj(base, off uint64) uint64 {
	if off < 8 {
		panic("native: LoadObj offset inside the header word")
	}
	return t.Load(base + off)
}

// StoreObj writes a field of the object at base.
func (t *Thread) StoreObj(base, off, val uint64) {
	if off < 8 {
		panic("native: StoreObj offset inside the header word")
	}
	t.Store(base+off, val)
}

// Exec is free on the native backend: host compute is real compute.
func (t *Thread) Exec(n uint64) {}

// Alloc reserves memory from the system's concurrency-safe arena. An
// aborted transaction merely leaks the allocation, as a GC would reclaim.
func (t *Thread) Alloc(size, align uint64) uint64 {
	t.RequireTxn()
	return t.sys.alloc(size, align)
}

// StoreInit initialises freshly allocated, still-private memory without
// concurrency control. The store is atomic so a later transactional read
// of the published word is race-clean.
func (t *Thread) StoreInit(addr, val uint64) {
	t.RequireTxn()
	t.sys.m.StoreAtomic(addr, val)
}

// --- Commit ----------------------------------------------------------------

// Commit finishes the attempt: the TL2 commit of a revocable one (invariant
// 3), or the stamp-and-bump of an irrevocable one. Returns false with the
// abort cause if the attempt must be re-run.
func (t *Thread) Commit() (bool, telemetry.AbortCause) {
	if t.Irrevocable() {
		t.commitIrrevocable()
		return true, 0
	}
	if len(t.writes) == 0 {
		// Read-only: every read was valid at <= rv when it happened
		// (invariant 2), so the snapshot is exactly the committed state
		// at rv and serializes there.
		t.lastStamp = t.rv
		return true, 0
	}

	// Acquire the write set's stripes in ascending index order.
	t.stripeIdxs = t.stripeIdxs[:0]
	for _, w := range t.writes {
		t.stripeIdxs = append(t.stripeIdxs, t.sys.stripeIndex(w.addr))
	}
	slices.Sort(t.stripeIdxs)
	t.owned = t.owned[:0]
	last := -1
	for _, ix := range t.stripeIdxs {
		if ix == last {
			continue // several addresses on one stripe
		}
		last = ix
		old, ok := t.acquireStripe(ix)
		if !ok {
			t.releaseOwned(0) // restore pre-lock versions
			return false, telemetry.AbortLockConflict
		}
		t.owned = append(t.owned, readEntry{ix: ix, ver: old})
	}

	// Chaos point: the full write set is locked, wv not yet taken — a
	// stall here is exactly a descheduled committer.
	if t.chaosAt(pointPostLock) {
		t.releaseOwned(0)
		return false, telemetry.AbortLockConflict
	}

	wv := t.sys.clock.Add(2)

	if t.chaosAt(pointPreValidate) {
		t.releaseOwned(0)
		return false, telemetry.AbortLockConflict
	}

	// Revalidate the read set unless nothing committed since our snapshot
	// (rv+2 == wv means we took the only clock tick).
	if t.rv+2 != wv {
		for _, re := range t.reads {
			cur := t.sys.stripes[re.ix].v.Load()
			if cur == re.ver {
				continue
			}
			if cur == t.lockWord {
				k, mine := slices.BinarySearchFunc(t.owned, re.ix, func(o readEntry, ix int) int { return o.ix - ix })
				if mine && t.owned[k].ver == re.ver {
					continue // we locked it ourselves; it was unchanged
				}
			}
			t.releaseOwned(0)
			return false, telemetry.AbortValidation
		}
	}

	if t.chaosAt(pointPreWriteBack) {
		t.releaseOwned(0)
		return false, telemetry.AbortLockConflict
	}

	// Publish the buffered values in program order (the newest store to an
	// address lands last), then release the stripes to wv: the new versions
	// become visible only after the data.
	for _, w := range t.writes {
		t.sys.m.StoreAtomic(w.addr, w.val)
	}
	t.releaseOwned(wv)

	t.lastStamp = wv
	t.sys.notifyCommit()
	return true, 0
}

// acquireStripe write-locks one stripe, spinning per the contention
// policy. Returns the pre-lock version on success.
func (t *Thread) acquireStripe(ix int) (old uint64, ok bool) {
	sp := &t.sys.stripes[ix]
	limit := t.spinLimit()
	spins := 0
	for {
		v := sp.v.Load()
		if v&1 == 0 {
			if sp.v.CompareAndSwap(v, t.lockWord) {
				return v, true
			}
			continue // lost the CAS race; re-sample without waiting
		}
		spins++
		if spins > limit {
			return 0, false
		}
		t.spinYield(spins)
	}
}

// releaseOwned releases every acquired stripe: to wv after a successful
// publish, or back to its pre-lock version (wv == 0) on an aborted commit.
func (t *Thread) releaseOwned(wv uint64) {
	for _, o := range t.owned {
		if wv != 0 {
			t.sys.stripes[o.ix].v.Store(wv)
		} else {
			t.sys.stripes[o.ix].v.Store(o.ver)
		}
	}
}

// --- Savepoints and rollback ------------------------------------------------

// Savepoint marks the logs at nested-transaction entry.
func (t *Thread) Savepoint() tm.Savepoint {
	return tm.Savepoint{Reads: len(t.reads), Writes: len(t.writes), Undo: len(t.undo)}
}

// RollbackAll undoes the attempt. Only an irrevocable attempt has anything
// in memory to undo (a body error, or a contained panic); a revocable
// attempt's buffers are simply reset by the next begin.
func (t *Thread) RollbackAll() {
	if t.Irrevocable() {
		t.RollbackTo(tm.Savepoint{})
	}
}

// RollbackTo reverts the attempt's logs to a savepoint. Revocable
// transactions point the write index of every address that keeps an older
// entry back at it, newest first, then truncate the buffers; irrevocable
// transactions replay the undo log, newest first.
func (t *Thread) RollbackTo(sp tm.Savepoint) {
	if t.Irrevocable() {
		for i := len(t.undo) - 1; i >= sp.Undo; i-- {
			t.sys.m.StoreAtomic(t.undo[i].addr, t.undo[i].old)
		}
		t.undo = t.undo[:sp.Undo]
		return
	}
	for i := len(t.writes) - 1; i >= sp.Writes; i-- {
		if w := t.writes[i]; w.prev >= 0 {
			t.windex.set(t.writes, w.addr, w.prev)
		}
	}
	t.writes = t.writes[:sp.Writes]
	t.reads = t.reads[:sp.Reads]
}

// commitIrrevocable stamps the transaction and bumps every touched stripe
// so retry waiters and later snapshots observe the in-place writes.
func (t *Thread) commitIrrevocable() {
	wv := t.sys.clock.Add(2)
	last := -1
	slices.Sort(t.touched)
	for _, ix := range t.touched {
		if ix == last {
			continue
		}
		last = ix
		t.sys.stripes[ix].v.Store(wv)
	}
	t.lastStamp = wv
	if len(t.touched) > 0 {
		t.sys.notifyCommit()
	}
}
