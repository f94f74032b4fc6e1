package tm

import "hastm.dev/hastm/internal/telemetry"

// This file holds the signal grammar and the attempt/strike bookkeeping of
// the transaction engine (engine.go): the panic values a body or a protocol
// may throw through the engine, the savepoint a nested transaction rolls
// back to, and the counter that decides when the escalation ladder fires.

// AbortSignal is thrown (with panic) through a transaction body when the
// engine must abort the current attempt for the carried cause; the engine
// rolls back and re-executes.
type AbortSignal struct{ Cause telemetry.AbortCause }

// RetrySignal is thrown when the body called Txn.Retry: the innermost
// alternative rolls back and the transaction blocks until a previously
// read location may have changed.
type RetrySignal struct{}

// UserAbortSignal is thrown when the body called Txn.Abort: the whole
// transaction rolls back and Atomic returns ErrUserAbort.
type UserAbortSignal struct{}

// RestartSignal is thrown by a protocol that must re-execute the attempt
// under a different strategy (MVCC's stale-snapshot writer restart). Like a
// retry it is a terminal that is NOT an abort — no strike, no abort count —
// and unlike a retry nothing is waited for. Event names the terminal trace
// event, Cause its cause. A non-nil Err moves the re-execution out of the
// engine: the top-level Atomic returns Err after the rollback (HyTM's
// hardware attempt handing a transaction to its software thread).
type RestartSignal struct {
	Event, Cause string
	Err          error
}

// IsEngineSignal reports whether a recovered panic value belongs to the
// shared signal grammar (as opposed to a foreign panic escaping the body).
func IsEngineSignal(r interface{}) bool {
	switch r.(type) {
	case AbortSignal, RetrySignal, UserAbortSignal, RestartSignal:
		return true
	}
	return false
}

// Savepoint marks the transactional log sizes at nested-transaction entry.
// Rolling back to a savepoint truncates the logs to these sizes — partial
// rollback for closed nesting and orElse alternatives. Writes counts the
// write set or the write buffer, Undo is zero for a protocol without an
// undo log, and Served carries MVCC's "a read came from the version
// history" flag, which a partial rollback must also restore.
type Savepoint struct {
	Reads, Writes, Undo int
	Served              bool
}

// AttemptFSM tracks one top-level transaction's attempt history and decides
// when the escalation ladder fires. The distinction it encodes, shared by
// every backend:
//
//   - an abort (conflict, validation failure, aggressive-mode loss) is a
//     strike: repeated strikes indicate the transaction is being starved
//     and escalate it to serial irrevocable mode at the retry budget;
//   - a retry-wait (Txn.Retry) is a new attempt but NOT a strike: the
//     transaction chose to block for a condition, it was not victimised.
type AttemptFSM struct {
	// RetryBudget is the number of strikes before ShouldEscalate fires.
	// Callers gate escalation on the ladder actually being armed (a token
	// on the simulator backends, the serial mutex on the native backend);
	// the FSM only counts.
	RetryBudget int

	attempt int
	strikes int
	forced  bool
}

// BeginTxn resets the counters at the start of a new top-level transaction.
func (f *AttemptFSM) BeginTxn() { f.attempt, f.strikes, f.forced = 0, 0, false }

// ForceEscalate makes ShouldEscalate fire on the current transaction's next
// check regardless of the strike count. Admission control uses this to
// serialise a transaction known to target contested state (a hot key)
// before it burns its retry budget discovering the conflict itself. The
// flag is per-transaction: BeginTxn clears it.
func (f *AttemptFSM) ForceEscalate() { f.forced = true }

// Attempt returns the current attempt index (0 = first execution).
func (f *AttemptFSM) Attempt() int { return f.attempt }

// Strikes returns the number of aborted attempts of this transaction.
func (f *AttemptFSM) Strikes() int { return f.strikes }

// OnAbort records an aborted attempt: the next attempt has a higher index
// and the transaction is one strike closer to escalation.
func (f *AttemptFSM) OnAbort() { f.attempt++; f.strikes++ }

// OnRetryWait records a retry-wait: the next attempt has a higher index but
// no strike accrues.
func (f *AttemptFSM) OnRetryWait() { f.attempt++ }

// ShouldEscalate reports whether the strike count has reached the retry
// budget, so the next attempt must run serially and irrevocably. With a
// zero budget it fires immediately — callers that want "ladder off" must
// not arm the ladder at all rather than pass a zero budget.
func (f *AttemptFSM) ShouldEscalate() bool { return f.forced || f.strikes >= f.RetryBudget }
