package tm

import (
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
)

// Protocol is what a concurrency-control scheme supplies to the Engine: the
// data path (the Txn barriers) plus the hooks below. The engine decides
// WHEN an attempt begins, commits, rolls back, waits or escalates; the
// protocol decides HOW. Hooks issue their own simulated charges; the engine
// fixes the order they are called in, so every scheme's cycle accounting
// and trace are a function of this file's control flow alone.
type Protocol interface {
	Txn

	// BeginAttempt resets the attempt's logs and charges the begin cost.
	// attempt 0 opens a new top-level transaction: the protocol also clears
	// the retry wait set and any per-transaction state.
	BeginAttempt(attempt int)
	// Commit validates and publishes the attempt. On failure it has already
	// released whatever the commit itself acquired and returns the cause;
	// the engine then rolls the attempt back as an abort.
	Commit() (ok bool, cause telemetry.AbortCause)
	// EndAttempt runs after the attempt's terminal event — commit, or
	// RollbackAll on every other exit — and before the ladder is left.
	EndAttempt(committed bool)

	// Savepoint marks the logs at nested-transaction entry; RollbackTo
	// reverts data and logs to a mark (partial rollback); RollbackAll
	// undoes the whole attempt and charges the abort bookkeeping.
	Savepoint() Savepoint
	RollbackTo(sp Savepoint)
	RollbackAll()

	// ObserveSetSizes raises the protocol's log-pressure gauges to the
	// current set sizes and returns them for the terminal trace event.
	ObserveSetSizes() (reads, writes, undo int)
	// ReadsConsistent re-checks the read set at zero simulated cost. It
	// states the protocol's sandboxing rule for foreign panics and body
	// errors (see runBody): a protocol whose reads are opaque — never
	// observed inconsistent — returns true.
	ReadsConsistent() bool

	// WatchReadsFrom appends read-set entries at index >= n to the retry
	// wait set and returns the wait set's size.
	WatchReadsFrom(n int) int
	// WaitForChange blocks until a watched location may have changed; a
	// spurious wakeup is permitted. Called outside the ladder.
	WaitForChange()
	// Backoff is contention management between an abort and the
	// re-execution; the protocol decides which causes wait. A non-nil error
	// ends the top-level Atomic with that error instead of re-executing.
	Backoff(cause telemetry.AbortCause) error

	// EnterLadder and ExitLadder bracket every attempt when the ladder is
	// armed: the shared side for a revocable attempt (waiting out any
	// irrevocable owner), the exclusive side — all other attempts drained —
	// for an irrevocable one.
	EnterLadder(irrevocable bool)
	ExitLadder(irrevocable bool)
}

// BodyErrorCause is the cause carried by the EvError trace event a failed
// (error-returning) transaction body emits.
const BodyErrorCause = "body-error"

// Engine is the control plane every TM in this repository runs: the
// top-level attempt loop, closed nesting, orElse, retry/abort signalling,
// foreign-panic sandboxing, the escalation ladder and the life-cycle trace
// and telemetry emission. A scheme's thread embeds one and binds it to its
// Protocol; the eager-undo STM (and through it HASTM), the lazy/MVCC STM,
// the host-native TL2 and the HTM/HyTM hardware path differ only in the
// protocol.
type Engine struct {
	p     Protocol
	txn   Txn      // p as the body's argument, converted once
	ctx   *sim.Ctx // nil on the host backend: no simulated charges, no trace
	tb    *telemetry.Block
	label string // watchdog status label of a revocable attempt
	armed bool   // the escalation ladder is configured

	fsm    AttemptFSM
	txnSeq uint64 // per-thread transaction id, stable across retries

	inTxn       bool
	irrevocable bool
	// serializeNext makes the next top-level Atomic escalate on its first
	// attempt; set by AtomicSerialized, consumed by Atomic.
	serializeNext bool
}

// Bind wires the engine to its protocol and accounting block. ctx is nil on
// the host backend. armed says whether the ladder exists at all (a token on
// the simulator, a positive budget on the host); a zero retryBudget with an
// armed ladder escalates every transaction on its first attempt.
func (e *Engine) Bind(p Protocol, ctx *sim.Ctx, tb *telemetry.Block, label string, retryBudget int, armed bool) {
	e.p, e.txn, e.ctx, e.tb, e.label, e.armed = p, p, ctx, tb, label, armed
	e.fsm.RetryBudget = retryBudget
}

// InTxn reports whether an atomic block is executing.
func (e *Engine) InTxn() bool { return e.inTxn }

// Irrevocable reports whether the current attempt holds the ladder's
// exclusive side: it runs serially and has no abort path.
func (e *Engine) Irrevocable() bool { return e.irrevocable }

// Attempt returns the current attempt number (0 = first execution).
func (e *Engine) Attempt() int { return e.fsm.Attempt() }

// Strikes returns the number of aborted attempts of this transaction.
func (e *Engine) Strikes() int { return e.fsm.Strikes() }

// TxnSeq returns the per-thread id of the current (or most recent)
// top-level transaction; it stays stable across that transaction's retries.
func (e *Engine) TxnSeq() uint64 { return e.txnSeq }

// RequireTxn panics unless an atomic block is executing; every barrier
// calls it first.
func (e *Engine) RequireTxn() {
	if !e.inTxn {
		panic("tm: transactional access outside an atomic block")
	}
}

// Atomic runs body as a transaction. At top level it re-executes aborted
// attempts until commit — escalating to serial irrevocable mode once the
// retry budget is spent — or until the body fails or the protocol ends the
// transaction with an error (Backoff, RestartSignal.Err); inside a
// transaction it is a closed-nested transaction with partial rollback.
func (e *Engine) Atomic(body func(Txn) error) error {
	if e.inTxn {
		retried, err := e.nested(body)
		if retried {
			panic(RetrySignal{})
		}
		return err
	}
	e.fsm.BeginTxn()
	if e.serializeNext {
		e.serializeNext = false
		e.fsm.ForceEscalate()
	}
	e.txnSeq++
	for {
		e.enterLadder()
		e.begin()
		sig, err := e.runBody(body)
		switch s := sig.(type) {
		case nil:
			if err != nil {
				// Body failure: the trace needs a terminal event (a
				// dangling begin breaks per-transaction accounting), but
				// nothing conflicted, so it is not an abort — the abort
				// counters keep summing to the traced abort events.
				e.abandon(telemetry.EvError, BodyErrorCause, 0)
				return err
			}
			ok, cause := e.p.Commit()
			if ok {
				e.committed()
				return nil
			}
			err = e.abort(cause)
		case UserAbortSignal:
			e.abandon(telemetry.EvAbort, telemetry.AbortExplicit.String(), 0)
			e.tb.Abort(telemetry.AbortExplicit)
			return ErrUserAbort
		case RetrySignal:
			// The wait set must capture the read set before the rollback
			// truncates it; earlier orElse alternatives already parked
			// theirs there.
			e.abandon(telemetry.EvRetry, "", e.p.WatchReadsFrom(0))
			e.tb.Inc(telemetry.Retries)
			e.p.WaitForChange()
			e.fsm.OnRetryWait()
		case RestartSignal:
			// A strategy switch: the attempt index advances but no strike
			// is charged and no abort is counted. With Err set the switch
			// leaves the engine: Atomic returns it.
			e.abandon(s.Event, s.Cause, 0)
			e.fsm.OnRetryWait()
			err = s.Err
		case AbortSignal:
			err = e.abort(s.Cause)
		}
		if err != nil {
			return err
		}
	}
}

// AtomicSerialized runs body as a transaction that escalates to serial
// irrevocable mode on its first attempt: admission control's "serialize"
// action for transactions known to target a hot key. Without an armed
// ladder it degrades to a plain Atomic — the forced flag is never
// consulted. Inside a transaction it is an ordinary closed-nested block.
func (e *Engine) AtomicSerialized(body func(Txn) error) error {
	if !e.inTxn {
		e.serializeNext = true
	}
	return e.p.Atomic(body) // through the scheme's own Atomic wrapper, if any
}

// OrElse implements composable blocking (§2, [11]): alternatives run as
// nested transactions; one that calls Retry is rolled back and the next is
// tried; if all retry, the retry propagates with the union of their read
// sets as the wait set.
func (e *Engine) OrElse(alternatives ...func(Txn) error) error {
	if !e.inTxn {
		return e.p.Atomic(func(tx Txn) error { return tx.OrElse(alternatives...) })
	}
	for _, alt := range alternatives {
		if retried, err := e.nested(alt); !retried {
			return err
		}
	}
	panic(RetrySignal{})
}

// Retry aborts the innermost alternative and blocks re-execution until a
// previously read location may have changed.
func (e *Engine) Retry() {
	e.RequireTxn()
	if e.irrevocable {
		// An irrevocable attempt holds the ladder exclusively and has
		// drained every other thread: blocking it on a change nobody can
		// make is a guaranteed deadlock, and the ladder invariant
		// (irrevocable is terminal-commit-only) forbids the rollback. Fail
		// loudly; the backend contains the panic as a fault.
		panic("tm: Retry inside an irrevocable transaction")
	}
	panic(RetrySignal{})
}

// Abort abandons the whole transaction; the top-level Atomic returns
// ErrUserAbort.
func (e *Engine) Abort() {
	e.RequireTxn()
	if e.irrevocable {
		// Same invariant as Retry: irrevocable attempts have no abort path.
		panic("tm: Abort inside an irrevocable transaction")
	}
	panic(UserAbortSignal{})
}

// Unwind restores the engine after a panic escaped Atomic mid-attempt: the
// attempt is rolled back, the ladder side it held is released and the mode
// flags are cleared. A backend that contains foreign panics as per-
// transaction errors calls it from its recovery rail; the simulator instead
// retires the whole core (CoreFault), so nothing is left to restore.
func (e *Engine) Unwind() {
	if e.inTxn {
		e.p.RollbackAll()
		e.exitLadder()
		e.inTxn = false
	}
}

// nested runs body as a closed-nested transaction: the one routine behind
// both a nested Atomic and each orElse alternative. A body error rolls back
// only the nested effects; a Retry parks the nested reads in the wait set,
// rolls back and reports retried; conflict and user aborts (and protocol
// restarts) unwind the whole transaction.
func (e *Engine) nested(body func(Txn) error) (retried bool, err error) {
	sp := e.p.Savepoint()
	e.exec(4) // nested begin
	sig, err := e.runBody(body)
	switch sig.(type) {
	case nil:
		if err != nil {
			e.p.RollbackTo(sp)
			return false, err
		}
		e.exec(2) // nested commit merges into the parent
		return false, nil
	case RetrySignal:
		e.p.WatchReadsFrom(sp.Reads)
		e.p.RollbackTo(sp)
		return true, nil
	default:
		panic(sig)
	}
}

// runBody executes a body, converting engine signals into a return value.
// This is the one statement of the sandboxing policy: a foreign panic or an
// error out of a body that ran on an inconsistent read set is a zombie
// effect and becomes a validation abort; out of a consistent one it is the
// program's own and propagates. A protocol whose reads are opaque (native
// TL2) therefore always propagates, and contains a panic itself.
func (e *Engine) runBody(body func(Txn) error) (sig interface{}, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if IsEngineSignal(r) {
			sig = r
			return
		}
		if sim.IsStop(r) {
			// Watchdog stop-unwinding: must propagate to the grant
			// boundary, never be misread as a zombie abort.
			panic(r)
		}
		if !e.p.ReadsConsistent() {
			sig = AbortSignal{Cause: telemetry.AbortValidation}
			return
		}
		panic(r)
	}()
	if err = body(e.txn); err != nil && !e.p.ReadsConsistent() {
		return AbortSignal{Cause: telemetry.AbortValidation}, nil
	}
	return nil, err
}

func (e *Engine) begin() {
	e.inTxn = true
	attempt := e.fsm.Attempt()
	if e.tracing() {
		e.emit(telemetry.TxnEvent{Kind: telemetry.EvBegin})
	}
	e.p.BeginAttempt(attempt)
	if e.ctx == nil {
		return
	}
	if e.irrevocable {
		if e.tracing() {
			e.emit(telemetry.TxnEvent{Kind: telemetry.EvIrrevocable})
		}
		e.ctx.SetStatus("irrevocable", attempt)
	} else {
		e.ctx.SetStatus(e.label, attempt)
	}
}

// committed closes out an attempt whose Commit succeeded.
func (e *Engine) committed() {
	e.tb.Inc(telemetry.Commits)
	if e.ctx != nil {
		e.ctx.NoteCommit()
	}
	reads, writes, undo := e.p.ObserveSetSizes()
	e.tb.ObserveMax(telemetry.RetryDepthHWM, uint64(e.fsm.Attempt()))
	if e.tracing() {
		e.emit(telemetry.TxnEvent{Kind: telemetry.EvCommit, Reads: reads, Writes: writes, Undo: undo})
	}
	e.end(true)
}

// abandon is the single exit path for every non-committing end of a
// top-level attempt: conflict abort, explicit abort, retry-wait, protocol
// restart, body error. Every exit records the attempt's footprint in the
// set-size high-water marks and emits a terminal trace event carrying the
// full set sizes, so begins always pair with terminals and the
// log-pressure gauges cannot silently skip retry or error attempts. watch
// is the wait-set size of a retry-wait, 0 on every other exit.
func (e *Engine) abandon(kind, cause string, watch int) {
	reads, writes, undo := e.p.ObserveSetSizes()
	if e.tracing() {
		e.emit(telemetry.TxnEvent{Kind: kind, Cause: cause, Reads: reads, Writes: writes, Undo: undo, Watch: watch})
	}
	e.p.RollbackAll()
	e.end(false)
}

// abort rolls an aborted attempt back and prepares the next: a strike
// towards the retry budget, then the protocol's backoff, whose error (if
// any) ends the transaction.
func (e *Engine) abort(cause telemetry.AbortCause) error {
	e.abandon(telemetry.EvAbort, cause.String(), 0)
	e.tb.Abort(cause)
	e.fsm.OnAbort()
	return e.p.Backoff(cause)
}

func (e *Engine) end(committed bool) {
	e.p.EndAttempt(committed)
	e.exitLadder()
	e.inTxn = false
}

// enterLadder runs before every top-level attempt when the ladder is armed.
// Within the retry budget the attempt announces itself as revocable; past
// it the transaction escalates: the protocol takes the exclusive side,
// draining every other thread's in-flight attempt, and the attempt runs
// serially with no abort path.
func (e *Engine) enterLadder() {
	if !e.armed {
		return
	}
	escalate := e.fsm.ShouldEscalate()
	if escalate {
		if e.tracing() {
			e.emit(telemetry.TxnEvent{Kind: telemetry.EvEscalate, Cause: "retry-budget"})
		}
		e.tb.Inc(telemetry.Escalations)
	}
	e.p.EnterLadder(escalate)
	if escalate {
		e.irrevocable = true
		e.tb.Inc(telemetry.IrrevocableEntries)
	}
}

func (e *Engine) exitLadder() {
	if !e.armed {
		return
	}
	e.p.ExitLadder(e.irrevocable)
	e.irrevocable = false
}

// tracing reports whether a sink records life-cycle events: only a
// simulated core with a trace attached. Callers check it before building
// an event, so an untraced transaction copies none.
func (e *Engine) tracing() bool { return e.ctx != nil && e.ctx.Machine().TxnTrace() != nil }

// emit records one life-cycle event on the machine's trace, stamped with
// the transaction id and attempt index: the one place the engine emits.
// Call it only when tracing.
func (e *Engine) emit(ev telemetry.TxnEvent) {
	ev.Txn, ev.Retry = e.txnSeq, e.fsm.Attempt()
	e.ctx.EmitTxn(ev)
}

// exec charges engine bookkeeping instructions to the simulated clock.
func (e *Engine) exec(n uint64) {
	if e.ctx != nil {
		e.ctx.Exec(n)
	}
}
