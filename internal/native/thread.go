package native

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"time"

	"hastm.dev/hastm/internal/mem"
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

	// cur and end bound what is left of the thread's arena chunk (Alloc).
	cur, end uint64

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
// locked stripe before aborting.
const spinLimit = 128

// backoffCapShift caps Backoff's exponential window at
// 1µs << 6 = 64µs: long enough to drain any commit section, short enough
// that a transiently unlucky thread recovers quickly.
const backoffCapShift = 6

// Backoff yields between failed attempts; real time replaces the
// simulator's charged backoff cycles. Past the Gosched grace strikes the
// sleep is drawn uniformly from the upper half of a capped exponential
// window — the seeded per-thread jitter keeps two threads that aborted on
// the same stripe from re-colliding in lockstep, the same reason
// tm.Backoff jitters the simulated schemes. Only true data conflicts wait.
func (t *Thread) Backoff(cause telemetry.AbortCause) error {
	switch n := t.Strikes(); {
	case !cause.IsConflict():
	case n < 4:
		runtime.Gosched()
	default:
		window := uint64(time.Microsecond) << min(n-4, backoffCapShift)
		time.Sleep(time.Duration(window/2 + t.backoffRand()%(window/2+1)))
	}
	return nil
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
// serial lock the transaction held, discards its buffered writes, and
// returns the panic as a *TxnFault error (arena exhaustion as
// ErrArenaExhausted, a watchdog trip as the NativeProgressViolation),
// matching the simulator's containment rule.
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
// versions and the serial lock released (Engine.Unwind) — and converts the
// panic into the transaction's error. Nothing the transaction wrote reached
// memory, irrevocable or not, so its buffer is simply discarded.
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

// BeginAttempt clears the attempt's logs and samples the read version. An
// irrevocable attempt (invariant 5) runs the same buffered path while
// holding the serial lock exclusively.
func (t *Thread) BeginAttempt(attempt int) {
	if attempt == 0 {
		t.watch = t.watch[:0]
		if t.chaos != nil {
			t.chaos.beginTxn()
		}
	}
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
	if t.sys.failed.Load() != nil {
		panic(stopSignal{})
	}
	t.rv = t.sys.clock.Load()
	t.windex.reset()
	if t.Irrevocable() {
		// Chaos point: the serial lock is held exclusively — a stall here
		// drains every revocable attempt against the irrevocable window.
		t.chaosAt(pointIrrevocable)
		return
	}
	t.tb.Inc(telemetry.CautiousAttempts)
}

// EndAttempt counts the commit for the watchdog; the logs are reset at the
// next begin.
func (t *Thread) EndAttempt(committed bool) {
	if committed {
		t.commits.Add(1)
	}
}

// ObserveSetSizes raises the log-pressure high-water marks. The third size
// is zero: TL2 buffers its writes and logs no old values.
func (t *Thread) ObserveSetSizes() (reads, writes, _ int) {
	reads, writes = len(t.reads), len(t.writes)
	t.tb.ObserveMax(telemetry.ReadSetHWM, uint64(reads))
	t.tb.ObserveMax(telemetry.WriteSetHWM, uint64(writes))
	return reads, writes, 0
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
			// buffered until commit). Wait a bounded while, then give up.
			spins++
			if spins > spinLimit {
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

// arenaChunk is the share of the arena a thread takes at a time: mem's
// 64 KiB host allocation unit, so backing a chunk is one allocation.
const arenaChunk = 64 << 10

// Alloc bump-allocates from the thread's own arena chunk, taking the next
// chunk when the request does not fit. An aborted transaction merely leaks
// the allocation, as a GC would reclaim. Exhaustion raises an
// arenaExhausted panic that the enclosing Atomic's containment turns into
// ErrArenaExhausted.
func (t *Thread) Alloc(size, align uint64) uint64 {
	t.RequireTxn()
	if align < mem.WordSize {
		align = mem.WordSize
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("native: alignment %d is not a power of two", align))
	}
	if size == 0 {
		size = mem.WordSize
	}
	if size > t.sys.cfg.ArenaBytes {
		panic(arenaExhausted{need: size, arena: t.sys.cfg.ArenaBytes})
	}
	span := (size + mem.WordSize - 1) &^ (mem.WordSize - 1)
	addr, ok := fit(t.cur, t.end, span, align)
	if !ok {
		addr = t.takeChunk(size, span, align)
	}
	t.cur = addr + span
	return addr
}

// fit places span bytes aligned to align in [cur, end), if they fit.
func fit(cur, end, span, align uint64) (uint64, bool) {
	addr := (cur + align - 1) &^ (align - 1)
	return addr, addr >= cur && addr <= end && end-addr >= span
}

// takeChunk claims the next whole chunks of the arena that hold the
// allocation — capped at the arena end — with one CAS on arenaNext, backs
// them, and makes them the thread's chunk. Its pages are backed before any
// address in them can leave this thread, which is what lets other threads
// read them without synchronising with Back (DESIGN.md "Arena chunks").
func (t *Thread) takeChunk(size, span, align uint64) uint64 {
	s := t.sys
	for {
		start := s.arenaNext.Load()
		addr, ok := fit(start, s.arenaEnd, span, align)
		if !ok {
			panic(arenaExhausted{need: size, arena: s.cfg.ArenaBytes})
		}
		chunks := (addr + span - start + arenaChunk - 1) / arenaChunk
		end := min(start+chunks*arenaChunk, s.arenaEnd)
		if s.arenaNext.CompareAndSwap(start, end) {
			s.m.Back(start, end-start)
			t.end = end
			return addr
		}
	}
}

// StoreInit initialises freshly allocated, still-private memory without
// concurrency control. The store is atomic so a later transactional read
// of the published word is race-clean.
func (t *Thread) StoreInit(addr, val uint64) {
	t.RequireTxn()
	t.sys.m.StoreAtomic(addr, val)
}

// --- Commit ----------------------------------------------------------------

// Commit finishes the attempt with the TL2 commit (invariant 3). Returns
// false with the abort cause if the attempt must be re-run — never for an
// irrevocable attempt, which holds the serial lock exclusively: no stripe
// is locked and nothing commits beside it, so it takes every stripe on the
// first try, validation is skipped (rv+2 == wv) and the chaos abort points
// are skipped too (chaosAbortAt).
func (t *Thread) Commit() (bool, telemetry.AbortCause) {
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
	if t.chaosAbortAt(pointPostLock) {
		t.releaseOwned(0)
		return false, telemetry.AbortLockConflict
	}

	wv := t.sys.clock.Add(2)

	if t.chaosAbortAt(pointPreValidate) {
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

	if t.chaosAbortAt(pointPreWriteBack) {
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

// chaosAbortAt fires the commit's chaos injections planned for point p and
// reports whether one of them is a spurious abort. An irrevocable commit
// has no abort path, so it skips the points and its plans there lapse.
func (t *Thread) chaosAbortAt(p chaosPoint) bool {
	return !t.Irrevocable() && t.chaosAt(p)
}

// acquireStripe write-locks one stripe, spinning at most spinLimit times.
// Returns the pre-lock version on success.
func (t *Thread) acquireStripe(ix int) (old uint64, ok bool) {
	sp := &t.sys.stripes[ix]
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
		if spins > spinLimit {
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
	return tm.Savepoint{Reads: len(t.reads), Writes: len(t.writes)}
}

// RollbackAll has nothing to revert: no write reaches memory before commit,
// and the next begin resets the buffers.
func (t *Thread) RollbackAll() {}

// RollbackTo reverts the attempt's logs to a savepoint: it points the write
// index of every address that keeps an older entry back at it, newest
// first, then truncates the buffers.
func (t *Thread) RollbackTo(sp tm.Savepoint) {
	for i := len(t.writes) - 1; i >= sp.Writes; i-- {
		if w := t.writes[i]; w.prev >= 0 {
			t.windex.set(t.writes, w.addr, w.prev)
		}
	}
	t.writes = t.writes[:sp.Writes]
	t.reads = t.reads[:sp.Reads]
}
