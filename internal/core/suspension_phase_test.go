package core

import (
	"testing"

	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// phaseSuspender is a fault hook that injects a ring transition on grants
// attributed to one stats category — letting a test suspend a core
// precisely inside a transaction phase (e.g. the commit-time validation
// loop or the retry wait), not just between operations of the body.
type phaseSuspender struct {
	target telemetry.Category
	skip   int // category grants to let pass before each injection
	every  int // inject on every Nth matching grant after skip
	limit  int
	fired  int
	seen   int
}

func (s *phaseSuspender) OnGrant(c *sim.Ctx) {
	if c.Cat() != s.target || s.fired >= s.limit {
		return
	}
	s.seen++
	if s.seen <= s.skip || (s.seen-s.skip)%s.every != 0 {
		return
	}
	s.fired++
	c.InjectSuspend()
}

// Suspension in the middle of commit-time validation: the mark counter is
// already non-zero (a mid-body ring transition forced the full software
// path), and further suspensions land between the validation loop's
// record reads. §5 requires re-validation to succeed — no abort.
func TestSuspensionDuringCommitValidation(t *testing.T) {
	machine := testMachine(1)
	hook := &phaseSuspender{target: telemetry.Validate, skip: 2, every: 5, limit: 3}
	machine.SetFaultHook(hook)
	sys := NewCautious(machine, singleThreadCfg(tm.LineGranularity))

	const words = 24
	addr := machine.Mem.Alloc(words*64, 64)
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		if err := th.Atomic(func(tx tm.Txn) error {
			var sum uint64
			for i := uint64(0); i < words; i++ {
				sum += tx.Load(addr + i*64)
			}
			// Discard the marks mid-body so commit must run the full
			// software validation loop — the phase under test.
			c.RingTransition()
			tx.Store(addr, sum+1)
			return nil
		}); err != nil {
			t.Errorf("Atomic: %v", err)
		}
	})

	if hook.fired == 0 {
		t.Fatal("no suspensions landed inside the validation phase")
	}
	st := machine.Stats.Block(0)
	if st.Count(telemetry.Commits) != 1 || st.TotalAborts() != 0 {
		t.Errorf("commits=%d aborts=%d (%s); suspension during validation must re-validate, not abort",
			st.Count(telemetry.Commits), st.TotalAborts(), st.Report().Stats)
	}
	if st.Count(telemetry.FullValidations) == 0 {
		t.Error("full validation never ran; the test did not exercise the target phase")
	}
	if machine.Mem.Load(addr) != 1 {
		t.Errorf("final value %d, want 1", machine.Mem.Load(addr))
	}
}

// Suspension while a transaction is parked in waitForChange (the retry
// wait-set poll loop, attributed to telemetry.Validate): the waiter must
// still observe the producer's store and complete.
func TestSuspensionDuringRetryWait(t *testing.T) {
	machine := testMachine(2)
	hook := &phaseSuspender{target: telemetry.Validate, skip: 4, every: 8, limit: 10}
	machine.SetFaultHook(hook)
	sys := New(machine, DefaultConfig(tm.LineGranularity))

	flag := machine.Mem.Alloc(64, 64)
	ack := machine.Mem.Alloc(64, 64)
	machine.Run(
		func(c *sim.Ctx) {
			th := sys.Thread(c)
			if err := th.Atomic(func(tx tm.Txn) error {
				if tx.Load(flag) == 0 {
					tx.Retry()
				}
				tx.Store(ack, 1)
				return nil
			}); err != nil {
				t.Errorf("consumer: %v", err)
			}
		},
		func(c *sim.Ctx) {
			th := sys.Thread(c)
			c.Exec(4000)
			if err := th.Atomic(func(tx tm.Txn) error { tx.Store(flag, 1); return nil }); err != nil {
				t.Errorf("producer: %v", err)
			}
		})

	if hook.fired == 0 {
		t.Fatal("no suspensions landed inside the retry wait")
	}
	if machine.Mem.Load(ack) != 1 {
		t.Error("consumer never completed: wakeup lost to suspension during waitForChange")
	}
	if machine.Stats.Block(0).Count(telemetry.Retries) == 0 {
		t.Error("consumer never waited; the test did not exercise the target phase")
	}
}
