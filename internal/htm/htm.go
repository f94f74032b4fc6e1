// Package htm models the hardware-transactional baselines the paper
// compares HASTM against (§7.3):
//
//   - a best-effort, eager-conflict HTM: speculative stores buffered in
//     the core, conflicts detected at cache-line granularity through the
//     coherence protocol, aborts on any transactional line leaving the L1
//     (capacity/spurious aborts) — the behaviour whose spurious aborts
//     Figs 21/22 are about;
//   - HyTM: transactions run first in hardware with the Fig 14 read/write
//     barriers that coordinate with concurrent software transactions
//     through the shared transaction-record table, falling back to the
//     pure STM after repeated hardware aborts.
//
// A hardware attempt is a tm.Protocol under the shared tm.Engine, so it is
// begun, committed, rolled back, nested and traced like a software one.
// Like real best-effort HTMs, the restricted semantics show through the
// API: Retry, OrElse and a nested block's partial rollback need software,
// so HyTM re-runs such a transaction on its software thread and pure HTM
// panics.
package htm

import (
	"errors"

	"hastm.dev/hastm/internal/cache"
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/stm"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// Manager tracks the (at most one) active hardware transaction per core
// and implements conflict detection by listening to coherence events. All
// of its state changes happen inside granted simulator steps, keeping runs
// deterministic.
type Manager struct {
	machine *sim.Machine
	active  []*txnState
}

// NewManager creates the per-machine HTM state and hooks it into the
// coherence protocol.
func NewManager(machine *sim.Machine) *Manager {
	m := &Manager{
		machine: machine,
		active:  make([]*txnState, machine.Config().Cores),
	}
	machine.Caches.AddDropListener(m)
	machine.Caches.AddRemoteReadListener(m)
	return m
}

// txnState is one in-flight hardware transaction.
type txnState struct {
	reads  map[uint64]bool   // line addresses read transactionally
	writes map[uint64]bool   // line addresses written transactionally
	buf    map[uint64]uint64 // speculative word values
	order  []uint64          // deterministic flush order of buffered words

	verIncs []stm.RecEntry // HyTM: records whose version bumps at commit

	aborted bool
	cause   telemetry.AbortCause
}

func newTxnState() *txnState {
	return &txnState{
		reads:  make(map[uint64]bool, 64),
		writes: make(map[uint64]bool, 16),
		buf:    make(map[uint64]uint64, 16),
	}
}

// reset empties the state for the next hardware transaction, keeping the
// maps' and slices' storage.
func (t *txnState) reset() {
	clear(t.reads)
	clear(t.writes)
	clear(t.buf)
	t.order, t.verIncs = t.order[:0], t.verIncs[:0]
	t.aborted, t.cause = false, 0
}

func (t *txnState) doom(cause telemetry.AbortCause) {
	if !t.aborted {
		t.aborted = true
		t.cause = cause
	}
}

// LineDropped aborts a transaction whose read or write set loses a line:
// remote invalidations are conflicts; evictions and inclusion-driven
// back-invalidations are the capacity/spurious aborts of §7.4.
func (m *Manager) LineDropped(core int, lineAddr uint64, marks cache.MarkMasks, reason cache.DropReason, byCore int) {
	t := m.active[core]
	if t == nil || (!t.reads[lineAddr] && !t.writes[lineAddr]) {
		return
	}
	if reason == cache.DropInvalidate || reason == cache.DropSiblingStore {
		t.doom(telemetry.AbortHTMConflict)
	} else {
		t.doom(telemetry.AbortCapacity)
	}
}

// InjectSpuriousAbort dooms the core's in-flight hardware transaction as
// a capacity (spurious) abort — the fault plane's model of an interrupt,
// TLB shootdown or other non-conflict event that real HTMs surface as an
// abort. Reports whether an undoomed transaction was actually hit, so the
// injector can count effective faults. Must be called while holding the
// simulator grant (e.g. from a sim.FaultHook).
func (m *Manager) InjectSpuriousAbort(core int) bool {
	t := m.active[core]
	if t == nil || t.aborted {
		return false
	}
	t.doom(telemetry.AbortCapacity)
	return true
}

// LineRead aborts the owner of a speculatively written line when another
// core reads it (requester-wins resolution; retry backoff prevents
// livelock).
func (m *Manager) LineRead(reader int, lineAddr uint64) {
	for c, t := range m.active {
		if c == reader || t == nil {
			continue
		}
		if t.writes[lineAddr] {
			t.doom(telemetry.AbortHTMConflict)
		}
	}
}

// System is a pure-HTM or hybrid TM scheme.
type System struct {
	mgr         *Manager
	table       *stm.RecordTable // non-nil for HyTM
	fallback    *stm.System      // non-nil for HyTM
	maxAttempts int
	// The cycles a hardware load and store add to their cache access,
	// read from the machine's latencies once: tracking the line, and for
	// a store also buffering the speculative value.
	loadCost, storeCost uint64
}

var _ tm.System = (*System)(nil)

// Manager exposes the per-machine HTM state, letting a fault injector
// target the active hardware transactions.
func (s *System) Manager() *Manager { return s.mgr }

// NewHTM creates the pure hardware TM (no software coordination, no
// fallback — Atomic spins with backoff until the hardware commits).
func NewHTM(machine *sim.Machine) *System { return newSystem(machine, 1<<30) }

// newSystem is what both schemes share: the manager hooked into machine,
// the attempt limit and the per-access costs.
func newSystem(machine *sim.Machine, maxAttempts int) *System {
	lat := machine.Config().Lat
	return &System{mgr: NewManager(machine), maxAttempts: maxAttempts,
		loadCost: lat.HTMTrack, storeCost: lat.HTMTrack + lat.HTMSpecStore}
}

// NewHyTM creates the hybrid: hardware first with Fig 14 barriers against
// the shared record table, software (base STM) after maxAttempts hardware
// aborts. maxAttempts <= 0 selects the default of 4.
func NewHyTM(machine *sim.Machine, cfg tm.Config, maxAttempts int) *System {
	if maxAttempts <= 0 {
		maxAttempts = 4
	}
	table := stm.NewRecordTable(machine.Mem)
	s := newSystem(machine, maxAttempts)
	s.table, s.fallback = table, stm.NewWithTable("hytm-sw", machine, cfg, table)
	return s
}

// Name identifies the scheme: "hytm" for the hybrid, the one with a record
// table, else "htm".
func (s *System) Name() string {
	if s.table != nil {
		return "hytm"
	}
	return "htm"
}

// Thread binds the scheme to a core.
func (s *System) Thread(ctx *sim.Ctx) tm.Thread {
	t := &Thread{sys: s, ctx: ctx, txn: newTxnState(), backoff: *tm.NewBackoff(ctx.ID())}
	if s.fallback != nil {
		t.sw = s.fallback.Thread(ctx).(*stm.Thread)
		// The hardware path shares the software fallback's irrevocable
		// token (nil when the ladder is disabled): hardware attempts are
		// revocable participants in the same handshake, so an escalated
		// software transaction drains them too.
		t.tok = s.fallback.Progress().Token
		t.ladder = *tm.NewBackoff(ctx.ID())
	}
	// The budget never binds: Backoff hands HyTM to software first.
	t.Bind(t, ctx, ctx.Telem(), "htm", s.maxAttempts, t.tok != nil)
	return t
}

// Thread is one core's hardware-transactional handle: the hardware
// protocol under the shared tm.Engine, with HyTM's software thread behind
// it. It implements tm.Thread, tm.Txn and tm.Protocol.
type Thread struct {
	tm.Engine
	sys     *System
	ctx     *sim.Ctx
	sw      *stm.Thread // HyTM software fallback, nil for pure HTM
	txn     *txnState   // the thread's one transaction state, reused
	backoff tm.Backoff

	// Escalation-ladder handshake, shared with the software fallback (nil
	// when Progress is disabled).
	tok    *tm.IrrevocableToken
	ladder tm.Backoff
}

var _ tm.Protocol = (*Thread)(nil)

// How a HyTM transaction leaves the hardware path for its software thread:
// Backoff's error after maxAttempts hardware aborts, or a restart when the
// body needs software semantics. The restart is boxed once so throwing it
// allocates nothing.
var (
	errAttemptsExhausted             = errors.New("htm: hardware attempts exhausted")
	errNeedsSoftware                 = errors.New("htm: software semantics needed")
	needsSoftware        interface{} = tm.RestartSignal{Event: telemetry.EvFallback, Cause: "retry-semantics", Err: errNeedsSoftware}
)

// ID returns the simulated core id.
func (t *Thread) ID() int { return t.ctx.ID() }

// Stamp returns the core clock, the serialization stamp of the most
// recently committed atomic block on simulator backends.
func (t *Thread) Stamp() uint64 { return t.ctx.Clock() }

// Atomic runs body as a hardware transaction on the engine, re-executing
// aborted attempts. A HyTM transaction the hardware cannot finish runs on
// the software thread instead.
func (t *Thread) Atomic(body func(tm.Txn) error) error {
	switch err := t.Engine.Atomic(body); err {
	case errAttemptsExhausted:
		t.ctx.EmitTxn(telemetry.TxnEvent{Txn: t.TxnSeq(), Retry: t.Attempt(),
			Kind: telemetry.EvFallback, Cause: "attempts-exhausted"})
	case errNeedsSoftware:
	default:
		return err
	}
	t.ctx.Telem().Inc(telemetry.HTMFallbacks)
	return t.sw.Atomic(body)
}

// AtomicSerialized hands a HyTM transaction to the software thread, whose
// ladder can run it irrevocably; the hardware half never escalates.
func (t *Thread) AtomicSerialized(body func(tm.Txn) error) error {
	if t.sw == nil || t.InTxn() {
		return t.Engine.AtomicSerialized(body)
	}
	return t.sw.AtomicSerialized(body)
}

// Irrevocable reports whether the current attempt runs serially, which only
// a HyTM software attempt ever does.
func (t *Thread) Irrevocable() bool { return t.sw != nil && t.sw.Irrevocable() }

// --- tm.Protocol: the hardware attempt ---------------------------------------

// BeginAttempt takes the begin checkpoint and registers the attempt, so
// coherence events can doom it.
func (t *Thread) BeginAttempt(int) {
	t.txn.reset()
	t.checkpoint(t.txn)
}

// RollbackAll discards the speculative state: the abort's restore step.
func (t *Thread) RollbackAll() { t.checkpoint(nil) }

// checkpoint registers txn as the core's active hardware transaction (the
// begin checkpoint: register state, fences) or, with nil, restores.
func (t *Thread) checkpoint(txn *txnState) {
	prev := t.ctx.SetCat(telemetry.HTM)
	t.ctx.Step(func(m *sim.Machine) uint64 {
		t.sys.mgr.active[t.ctx.ID()] = txn
		return 10
	})
	t.ctx.SetCat(prev)
}

// EndAttempt resets the contention backoff after a commit.
func (t *Thread) EndAttempt(committed bool) {
	if committed {
		t.backoff.Reset()
	}
}

// Savepoint marks nothing: the speculative buffer cannot roll back in part.
func (t *Thread) Savepoint() tm.Savepoint { return tm.Savepoint{} }

// RollbackTo is a nested block's partial rollback, which needs software.
func (t *Thread) RollbackTo(tm.Savepoint) { t.softwareOnly() }

// ObserveSetSizes raises the hardware read/write-set high-water marks to
// the attempt's footprint in lines.
func (t *Thread) ObserveSetSizes() (reads, writes, undo int) {
	reads, writes = len(t.txn.reads), len(t.txn.writes)
	b := t.ctx.Telem()
	b.ObserveMax(telemetry.ReadSetHWM, uint64(reads))
	b.ObserveMax(telemetry.WriteSetHWM, uint64(writes))
	return reads, writes, 0
}

// ReadsConsistent: every read of an attempt that is not doomed is still
// current, since a remote store to a read line dooms it. A doomed attempt
// can never commit, so a panic out of it is a zombie effect.
func (t *Thread) ReadsConsistent() bool { return !t.txn.aborted }

// WatchReadsFrom and WaitForChange are unreachable: Retry never reaches the
// engine from a hardware attempt.
func (t *Thread) WatchReadsFrom(int) int { return 0 }
func (t *Thread) WaitForChange()         {}

// Backoff waits after every hardware abort, whatever the cause: a capacity
// or spurious abort recurs on an immediate re-execution too. A HyTM
// transaction gives up on hardware after maxAttempts aborts.
func (t *Thread) Backoff(telemetry.AbortCause) error {
	t.backoff.Wait(t.ctx)
	if t.sw != nil && t.Strikes() >= t.sys.maxAttempts {
		return errAttemptsExhausted
	}
	return nil
}

// EnterLadder announces the attempt as a revocable participant of the
// software thread's irrevocable handshake (the hardware never escalates).
func (t *Thread) EnterLadder(bool) {
	prev := t.ctx.SetCat(telemetry.Lock)
	t.tok.EnterShared(t.ctx, &t.ladder)
	t.ctx.SetCat(prev)
	t.ladder.Reset()
}

// ExitLadder withdraws the announcement.
func (t *Thread) ExitLadder(bool) {
	prev := t.ctx.SetCat(telemetry.Lock)
	t.tok.ExitShared(t.ctx)
	t.ctx.SetCat(prev)
}

// Commit atomically publishes the write buffer and the HyTM version
// increments, provided no coherence event doomed the attempt.
func (t *Thread) Commit() (bool, telemetry.AbortCause) {
	txn := t.txn
	ok := false
	prev := t.ctx.SetCat(telemetry.HTM)
	t.ctx.Step(func(m *sim.Machine) uint64 {
		cycles := uint64(14) // commit arbitration + checkpoint release
		if txn.aborted {
			return cycles
		}
		for _, addr := range txn.order {
			// Lines are already held for writing; publishing is a cheap
			// local operation per word.
			m.Mem.Store(addr, txn.buf[addr])
			cycles += 1
		}
		for _, e := range txn.verIncs {
			// The version bump must be coherence-visible so that software
			// transactions (and their mark bits) observe the conflict.
			cycles += m.AccessCost(t.ctx.ID(), e.Rec, true)
			m.Mem.Store(e.Rec, stm.NextVersion(e.Ver))
		}
		t.sys.mgr.active[t.ctx.ID()] = nil
		ok = true
		return cycles
	})
	t.ctx.SetCat(prev)
	return ok, txn.cause
}

// --- Barriers ---------------------------------------------------------------

// Load transactionally reads addr.
func (t *Thread) Load(addr uint64) uint64 {
	t.RequireTxn()
	txn := t.txn
	var v uint64
	doomed := false
	prev := t.ctx.SetCat(telemetry.App)
	t.ctx.Step(func(m *sim.Machine) uint64 {
		if txn.aborted {
			doomed = true
			return 0
		}
		var cost uint64
		if t.sys.table != nil {
			c, bad := t.hybridRecCheck(m, addr)
			cost += c
			if bad {
				doomed = true
				return cost
			}
		}
		cost += m.AccessCost(t.ctx.ID(), addr, false) + t.sys.loadCost
		if bv, okb := txn.buf[addr]; okb {
			v = bv
		} else {
			v = m.Mem.Load(addr)
		}
		txn.reads[mem.LineAddr(addr)] = true
		return cost
	})
	t.ctx.SetCat(prev)
	if doomed {
		panic(tm.AbortSignal{Cause: txn.cause})
	}
	return v
}

// Store transactionally writes addr into the speculative buffer; the line
// is taken for writing so conflicts are detected eagerly.
func (t *Thread) Store(addr, val uint64) {
	t.RequireTxn()
	txn := t.txn
	doomed := false
	prev := t.ctx.SetCat(telemetry.App)
	t.ctx.Step(func(m *sim.Machine) uint64 {
		if txn.aborted {
			doomed = true
			return 0
		}
		var cost uint64
		if t.sys.table != nil {
			c, bad := t.hybridRecCheck(m, addr)
			cost += c
			if bad {
				doomed = true
				return cost
			}
			rec := t.sys.table.RecordFor(addr)
			ver := m.Mem.Load(rec)
			already := false
			for _, e := range txn.verIncs {
				if e.Rec == rec {
					already = true
					break
				}
			}
			if !already {
				txn.verIncs = append(txn.verIncs, stm.RecEntry{Rec: rec, Ver: ver})
				cost += 2 // logWrite bookkeeping
			}
		}
		cost += m.AccessCost(t.ctx.ID(), addr, true) + t.sys.storeCost
		la := mem.LineAddr(addr)
		txn.writes[la] = true
		if _, okb := txn.buf[addr]; !okb {
			txn.order = append(txn.order, addr)
		}
		txn.buf[addr] = val
		return cost
	})
	t.ctx.SetCat(prev)
	if doomed {
		panic(tm.AbortSignal{Cause: txn.cause})
	}
}

// hybridRecCheck implements the Fig 14 barrier prologue: load the
// transaction record for addr and verify it is in the shared state (no
// concurrent software owner). The record's line joins the read set so a
// software acquire mid-transaction aborts us through coherence.
func (t *Thread) hybridRecCheck(m *sim.Machine, addr uint64) (cycles uint64, conflict bool) {
	rec := t.sys.table.RecordFor(addr)
	cycles = 3 // record address computation
	cycles += m.AccessCost(t.ctx.ID(), rec, false)
	v := m.Mem.Load(rec)
	cycles += 2 // isShared test + branch
	t.txn.reads[mem.LineAddr(rec)] = true
	if !stm.IsVersion(v) {
		t.txn.doom(telemetry.AbortHTMConflict)
		return cycles, true
	}
	return cycles, false
}

// LoadObj reads a field of the object at base; conflict detection stays at
// line granularity — exactly the restriction §2 holds against HTMs.
func (t *Thread) LoadObj(base, off uint64) uint64 { return t.Load(base + off) }

// StoreObj writes a field of the object at base.
func (t *Thread) StoreObj(base, off, val uint64) { t.Store(base+off, val) }

// OrElse needs software: see softwareOnly. Outside an atomic block it is
// a transaction of its own, as the engine's OrElse is.
func (t *Thread) OrElse(alternatives ...func(tm.Txn) error) error {
	if !t.InTxn() {
		return t.Atomic(func(tx tm.Txn) error { return tx.OrElse(alternatives...) })
	}
	return t.softwareOnly()
}

// Retry needs software: see softwareOnly.
func (t *Thread) Retry() { t.softwareOnly() }

// softwareOnly ends a hardware attempt that needs software semantics
// (Retry, OrElse, a nested rollback): HyTM restarts the transaction on its
// software thread; pure HTM has none and refuses (restricted semantics, §1).
// It never returns.
func (t *Thread) softwareOnly() error {
	t.RequireTxn()
	if t.sw == nil {
		panic("htm: retry, orElse and nested rollback are not supported by the pure hardware TM (restricted semantics, §1)")
	}
	panic(needsSoftware)
}

// Exec charges application compute to the simulated clock.
func (t *Thread) Exec(n uint64) { t.ctx.Exec(n) }

// Alloc reserves memory for a new object.
func (t *Thread) Alloc(size, align uint64) uint64 { return t.ctx.Alloc(size, align) }

// StoreInit initialises not-yet-published memory; it needs no speculative
// buffering because the object is invisible until a transactional store
// publishes it.
func (t *Thread) StoreInit(addr, val uint64) { t.ctx.Store(addr, val) }
