package tm

import (
	"testing"

	"hastm.dev/hastm/internal/telemetry"
)

// The AttemptFSM is shared by the simulator STM engine and the host-native
// TL2 backend; these tests pin its transitions so a change that would skew
// retry or escalation semantics on either backend fails here first.

func TestFSMFreshTransaction(t *testing.T) {
	f := AttemptFSM{RetryBudget: 3}
	f.BeginTxn()
	if f.Attempt() != 0 || f.Strikes() != 0 {
		t.Fatalf("fresh txn: attempt=%d strikes=%d, want 0/0", f.Attempt(), f.Strikes())
	}
	if f.ShouldEscalate() {
		t.Fatal("fresh transaction must not escalate")
	}
}

func TestFSMAbortsStrikeAndEscalateAtBudget(t *testing.T) {
	f := AttemptFSM{RetryBudget: 3}
	f.BeginTxn()
	for i := 1; i <= 2; i++ {
		f.OnAbort()
		if f.ShouldEscalate() {
			t.Fatalf("escalated after %d strikes with budget 3", i)
		}
	}
	f.OnAbort()
	if !f.ShouldEscalate() {
		t.Fatal("3 strikes with budget 3 must escalate")
	}
	if f.Attempt() != 3 {
		t.Fatalf("attempt=%d after 3 aborts, want 3", f.Attempt())
	}
}

func TestFSMRetryWaitsDoNotStrike(t *testing.T) {
	f := AttemptFSM{RetryBudget: 1}
	f.BeginTxn()
	for i := 0; i < 10; i++ {
		f.OnRetryWait()
	}
	if f.Strikes() != 0 {
		t.Fatalf("retry waits accrued %d strikes", f.Strikes())
	}
	if f.ShouldEscalate() {
		t.Fatal("retry waits alone must never escalate")
	}
	if f.Attempt() != 10 {
		t.Fatalf("attempt=%d after 10 retry waits, want 10", f.Attempt())
	}
}

func TestFSMBeginTxnResets(t *testing.T) {
	f := AttemptFSM{RetryBudget: 2}
	f.BeginTxn()
	f.OnAbort()
	f.OnAbort()
	if !f.ShouldEscalate() {
		t.Fatal("precondition: escalated")
	}
	f.BeginTxn()
	if f.ShouldEscalate() || f.Attempt() != 0 || f.Strikes() != 0 {
		t.Fatal("BeginTxn must clear attempt, strikes and escalation")
	}
}

func TestFSMZeroBudgetEscalatesImmediately(t *testing.T) {
	// Documented edge: an armed ladder with budget 0 escalates the first
	// attempt. "Ladder off" is expressed by not arming it, not by budget 0.
	f := AttemptFSM{RetryBudget: 0}
	f.BeginTxn()
	if !f.ShouldEscalate() {
		t.Fatal("zero budget must escalate immediately")
	}
}

func TestEngineSignalGrammar(t *testing.T) {
	for _, sig := range []interface{}{
		AbortSignal{Cause: telemetry.AbortValidation},
		RetrySignal{},
		UserAbortSignal{},
	} {
		if !IsEngineSignal(sig) {
			t.Fatalf("%T not recognised as an engine signal", sig)
		}
	}
	if IsEngineSignal("boom") || IsEngineSignal(nil) {
		t.Fatal("foreign panic values must not be engine signals")
	}
}
