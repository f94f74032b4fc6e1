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
// Like real best-effort HTMs, the restricted semantics show through the
// API: nesting is flattened and retry/orElse are unsupported in pure
// hardware mode (HyTM supports them by falling back to software).
package htm

import (
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
	name        string
	machine     *sim.Machine
	mgr         *Manager
	table       *stm.RecordTable // non-nil for HyTM
	fallback    *stm.System      // non-nil for HyTM
	maxAttempts int
}

var _ tm.System = (*System)(nil)

// Manager exposes the per-machine HTM state, letting a fault injector
// target the active hardware transactions.
func (s *System) Manager() *Manager { return s.mgr }

// NewHTM creates the pure hardware TM (no software coordination, no
// fallback — Atomic spins with backoff until the hardware commits).
func NewHTM(machine *sim.Machine) *System {
	return &System{
		name:        "htm",
		machine:     machine,
		mgr:         NewManager(machine),
		maxAttempts: 1 << 30,
	}
}

// NewHyTM creates the hybrid: hardware first with Fig 14 barriers against
// the shared record table, software (base STM) after maxAttempts hardware
// aborts. maxAttempts <= 0 selects the default of 4.
func NewHyTM(machine *sim.Machine, cfg tm.Config, maxAttempts int) *System {
	if maxAttempts <= 0 {
		maxAttempts = 4
	}
	table := stm.NewRecordTable(machine.Mem)
	return &System{
		name:        "hytm",
		machine:     machine,
		mgr:         NewManager(machine),
		table:       table,
		fallback:    stm.NewWithTable("hytm-sw", machine, cfg, nil, table),
		maxAttempts: maxAttempts,
	}
}

// Name identifies the scheme.
func (s *System) Name() string { return s.name }

// Thread binds the scheme to a core.
func (s *System) Thread(ctx *sim.Ctx) tm.Thread {
	t := &Thread{sys: s, ctx: ctx, state: newTxnState(), backoff: tm.NewBackoff(ctx.ID())}
	if s.fallback != nil {
		t.sw = s.fallback.Thread(ctx)
		// The hardware path shares the software fallback's irrevocable
		// token (nil when the ladder is disabled): hardware attempts are
		// revocable participants in the same handshake, so an escalated
		// software transaction drains them too.
		t.tok = s.fallback.Progress().Token
		t.ladder = tm.NewBackoff(ctx.ID())
	}
	return t
}

// Control-flow signals.
type hwAbort struct{ cause telemetry.AbortCause }
type hwUserAbort struct{}

// Thread is one core's hardware-transactional handle. It implements both
// tm.Thread and tm.Txn.
type Thread struct {
	sys     *System
	ctx     *sim.Ctx
	sw      tm.Thread // HyTM software fallback
	state   *txnState // the thread's one transaction state, reused
	cur     *txnState // state while a hardware transaction is in flight, else nil
	backoff *tm.Backoff
	depth   int
	txnSeq  uint64 // per-thread transaction id, stable across retries
	attempt int

	// Escalation-ladder handshake, shared with the software fallback (nil
	// when Progress is disabled).
	tok    *tm.IrrevocableToken
	ladder *tm.Backoff
}

var (
	_ tm.Thread = (*Thread)(nil)
	_ tm.Txn    = (*Thread)(nil)
)

// Ctx returns the core context.
func (t *Thread) Ctx() *sim.Ctx { return t.ctx }

// ID returns the simulated core id.
func (t *Thread) ID() int { return t.ctx.ID() }

// Stamp returns the core clock, the serialization stamp of the most
// recently committed atomic block on simulator backends.
func (t *Thread) Stamp() uint64 { return t.ctx.Clock() }

// Atomic runs body as a hardware transaction, retrying on aborts; a HyTM
// falls back to its software transaction after repeated hardware failures.
func (t *Thread) Atomic(body func(tm.Txn) error) error {
	if t.depth > 0 {
		// Best-effort HTMs flatten nested transactions (§2).
		t.depth++
		defer func() { t.depth-- }()
		return body(t)
	}
	t.txnSeq++
	for attempt := 0; ; attempt++ {
		t.attempt = attempt
		if t.sw != nil && attempt >= t.sys.maxAttempts {
			t.ctx.Telem().Inc(telemetry.HTMFallbacks)
			t.ctx.EmitTxn(telemetry.TxnEvent{Txn: t.txnSeq, Retry: attempt,
				Kind: telemetry.EvFallback, Cause: "attempts-exhausted"})
			return t.sw.Atomic(body)
		}
		t.ctx.SetStatus("htm", attempt)
		err, outcome := t.try(t.tok, body)
		switch outcome {
		case outcomeCommit:
			t.backoff.Reset()
			return err
		case outcomeUserAbort:
			return tm.ErrUserAbort
		case outcomeBodyErr:
			return err
		case outcomeRetrySW:
			// Retry/orElse need software semantics immediately.
			t.ctx.Telem().Inc(telemetry.HTMFallbacks)
			t.ctx.EmitTxn(telemetry.TxnEvent{Txn: t.txnSeq, Retry: attempt,
				Kind: telemetry.EvFallback, Cause: "retry-semantics"})
			return t.sw.Atomic(body)
		case outcomeAborted:
			t.backoff.Wait(t.ctx)
		}
	}
}

type outcome int

const (
	outcomeCommit outcome = iota
	outcomeAborted
	outcomeUserAbort
	outcomeBodyErr
	outcomeRetrySW
)

// try runs one hardware attempt. When the ladder is active (tok non-nil)
// the attempt is bracketed as a revocable participant of the irrevocable
// handshake: announce before beginning, withdraw on every outcome path —
// so an escalated software transaction's drain covers hardware attempts
// too. (A foreign panic skips the withdrawal; the run is failing into
// panic containment at that point.)
func (t *Thread) try(tok *tm.IrrevocableToken, body func(tm.Txn) error) (err error, out outcome) {
	if tok != nil {
		prev := t.ctx.SetCat(telemetry.Lock)
		tok.EnterShared(t.ctx, t.ladder)
		t.ctx.SetCat(prev)
		t.ladder.Reset()
		defer func() {
			prev := t.ctx.SetCat(telemetry.Lock)
			tok.ExitShared(t.ctx)
			t.ctx.SetCat(prev)
		}()
	}
	t.begin()
	t.depth = 1
	defer func() { t.depth = 0 }()

	defer func() {
		r := recover()
		switch a := r.(type) {
		case nil:
		case hwAbort:
			t.emitAbort(a.cause)
			t.end()
			t.ctx.Telem().Abort(a.cause)
			err, out = nil, outcomeAborted
		case hwUserAbort:
			t.emitAbort(telemetry.AbortExplicit)
			t.end()
			t.ctx.Telem().Abort(telemetry.AbortExplicit)
			err, out = nil, outcomeUserAbort
		case retryUnsupported:
			t.end()
			if t.sw == nil {
				panic("htm: retry/orElse not supported by the pure hardware TM (restricted semantics, §1)")
			}
			err, out = nil, outcomeRetrySW
		default:
			t.end()
			panic(r)
		}
	}()

	err = body(t)
	if err != nil {
		// Roll back by discarding the speculative buffer.
		t.emitAbort(telemetry.AbortExplicit)
		t.end()
		t.ctx.Telem().Abort(telemetry.AbortExplicit)
		return err, outcomeBodyErr
	}
	if !t.commit() {
		cause := t.cur.cause
		t.emitAbort(cause)
		t.end()
		t.ctx.Telem().Abort(cause)
		return nil, outcomeAborted
	}
	t.observeSetSizes()
	t.ctx.Telem().ObserveMax(telemetry.RetryDepthHWM, uint64(t.attempt))
	t.ctx.EmitTxn(telemetry.TxnEvent{Txn: t.txnSeq, Retry: t.attempt,
		Kind: telemetry.EvCommit, Reads: len(t.cur.reads), Writes: len(t.cur.writes)})
	t.endCommitted()
	t.ctx.Telem().Inc(telemetry.Commits)
	t.ctx.NoteCommit()
	return nil, outcomeCommit
}

// observeSetSizes raises the hardware read/write-set high-water marks to
// the current transaction's footprint.
func (t *Thread) observeSetSizes() {
	if t.cur == nil {
		return
	}
	b := t.ctx.Telem()
	b.ObserveMax(telemetry.ReadSetHWM, uint64(len(t.cur.reads)))
	b.ObserveMax(telemetry.WriteSetHWM, uint64(len(t.cur.writes)))
}

// emitAbort records an abort event (with the doomed attempt's footprint)
// before end() discards the speculative state.
func (t *Thread) emitAbort(cause telemetry.AbortCause) {
	t.observeSetSizes()
	var r, w int
	if t.cur != nil {
		r, w = len(t.cur.reads), len(t.cur.writes)
	}
	t.ctx.EmitTxn(telemetry.TxnEvent{Txn: t.txnSeq, Retry: t.attempt,
		Kind: telemetry.EvAbort, Cause: cause.String(), Reads: r, Writes: w})
}

type retryUnsupported struct{}

func (t *Thread) begin() {
	txn := t.state
	txn.reset()
	t.cur = txn
	t.ctx.EmitTxn(telemetry.TxnEvent{Txn: t.txnSeq, Retry: t.attempt, Kind: telemetry.EvBegin})
	prev := t.ctx.SetCat(telemetry.HTM)
	t.ctx.Step(func(m *sim.Machine) uint64 {
		t.sys.mgr.active[t.ctx.ID()] = txn
		return 10 // transaction-begin checkpoint (register state, fences)
	})
	t.ctx.SetCat(prev)
}

// end deregisters after an abort, discarding all speculative state.
func (t *Thread) end() {
	prev := t.ctx.SetCat(telemetry.HTM)
	t.ctx.Step(func(m *sim.Machine) uint64 {
		t.sys.mgr.active[t.ctx.ID()] = nil
		return 10 // abort/restore cost
	})
	t.ctx.SetCat(prev)
	t.cur = nil
}

// endCommitted deregisters after commit (already done inside the commit
// step; kept for symmetry of the bookkeeping).
func (t *Thread) endCommitted() { t.cur = nil }

// commit atomically publishes the write buffer and the HyTM version
// increments, provided the transaction was not doomed.
func (t *Thread) commit() bool {
	txn := t.cur
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
	return ok
}

// checkDoomed panics out of the body if the transaction was aborted by a
// remote event. Must be called inside a granted step.
func (t *Thread) raiseIfDoomed() {
	if t.cur.aborted {
		panic(hwAbort{t.cur.cause})
	}
}

// Load transactionally reads addr.
func (t *Thread) Load(addr uint64) uint64 {
	txn := t.cur
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
		cost += m.AccessCost(t.ctx.ID(), addr, false) + m.Config().Lat.HTMTrack
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
		t.raiseDoom()
	}
	return v
}

// Store transactionally writes addr into the speculative buffer; the line
// is taken for writing so conflicts are detected eagerly.
func (t *Thread) Store(addr, val uint64) {
	txn := t.cur
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
		cost += m.AccessCost(t.ctx.ID(), addr, true) + m.Config().Lat.HTMTrack + m.Config().Lat.HTMSpecStore
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
		t.raiseDoom()
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
	t.cur.reads[mem.LineAddr(rec)] = true
	if !stm.IsVersion(v) {
		t.cur.doom(telemetry.AbortHTMConflict)
		return cycles, true
	}
	return cycles, false
}

func (t *Thread) raiseDoom() {
	cause := telemetry.AbortHTMConflict
	if t.cur != nil && t.cur.aborted {
		cause = t.cur.cause
	}
	panic(hwAbort{cause})
}

// LoadObj reads a field of the object at base; conflict detection stays at
// line granularity — exactly the restriction §2 holds against HTMs.
func (t *Thread) LoadObj(base, off uint64) uint64 { return t.Load(base + off) }

// StoreObj writes a field of the object at base.
func (t *Thread) StoreObj(base, off, val uint64) { t.Store(base+off, val) }

// OrElse is unsupported in hardware; HyTM falls back to software.
func (t *Thread) OrElse(alternatives ...func(tm.Txn) error) error {
	panic(retryUnsupported{})
}

// Retry is unsupported in hardware; HyTM falls back to software.
func (t *Thread) Retry() { panic(retryUnsupported{}) }

// Abort discards the hardware transaction.
func (t *Thread) Abort() { panic(hwUserAbort{}) }

// Exec charges application compute to the simulated clock.
func (t *Thread) Exec(n uint64) { t.ctx.Exec(n) }

// Alloc reserves memory for a new object.
func (t *Thread) Alloc(size, align uint64) uint64 { return t.ctx.Alloc(size, align) }

// StoreInit initialises not-yet-published memory; it needs no speculative
// buffering because the object is invisible until a transactional store
// publishes it.
func (t *Thread) StoreInit(addr, val uint64) { t.ctx.Store(addr, val) }
