package stm

import (
	"strings"
	"testing"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// A transaction that keeps aborting must climb the ladder: after
// RetryBudget failed attempts the next attempt runs irrevocably and
// commits — the terminal commit the progress guarantee promises.
func TestLadderEscalatesToTerminalCommit(t *testing.T) {
	machine := testMachine(1)
	cfg := lineCfg()
	cfg.Progress.RetryBudget = 2
	s := New(machine, cfg)
	ctr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	machine.Run(func(c *sim.Ctx) {
		th := s.Thread(c).(*Thread)
		if err := th.Atomic(func(tx tm.Txn) error {
			if !th.Irrevocable() {
				th.AbortConflictForTest()
			}
			tx.Store(ctr, tx.Load(ctr)+1)
			return nil
		}); err != nil {
			t.Errorf("Atomic: %v", err)
		}
		if th.Irrevocable() {
			t.Error("token still held after commit")
		}
	})
	if got := machine.Mem.Load(ctr); got != 1 {
		t.Fatalf("counter = %d, want 1", got)
	}
	tot := machine.Stats
	if tot.Count(telemetry.Escalations) != 1 {
		t.Errorf("escalations = %d, want 1", tot.Count(telemetry.Escalations))
	}
	if tot.Count(telemetry.IrrevocableEntries) != 1 {
		t.Errorf("irrevocable entries = %d, want 1", tot.Count(telemetry.IrrevocableEntries))
	}
	if tot.Count(telemetry.IrrevocableCyclesHeld) == 0 {
		t.Error("irrevocable entry held the token for zero cycles")
	}
}

// irrevocableCfg arms the ladder with a zero budget and an explicit token,
// so the very first attempt of every transaction runs irrevocably.
func irrevocableCfg(m *sim.Machine) tm.Config {
	cfg := lineCfg()
	cfg.Progress.Token = tm.NewIrrevocableToken(m.Mem, m.Config().Cores)
	return cfg
}

// Retry and Abort have no meaning in an irrevocable transaction — there
// is no rollback path — so both must panic loudly rather than corrupt the
// serial mode.
func TestRetryAndAbortPanicWhenIrrevocable(t *testing.T) {
	for _, call := range []string{"Retry", "Abort"} {
		call := call
		t.Run(call, func(t *testing.T) {
			machine := testMachine(1)
			s := New(machine, irrevocableCfg(machine))
			machine.Run(func(c *sim.Ctx) {
				th := s.Thread(c).(*Thread)
				defer func() {
					r := recover()
					if r == nil {
						t.Errorf("%s inside an irrevocable transaction did not panic", call)
						return
					}
					if !strings.Contains(sprint(r), "irrevocable") {
						t.Errorf("%s panic = %v, want the irrevocable diagnostic", call, r)
					}
				}()
				_ = th.Atomic(func(tx tm.Txn) error {
					if !th.Irrevocable() {
						t.Error("zero budget did not make the first attempt irrevocable")
					}
					if call == "Retry" {
						th.Retry()
					} else {
						th.Abort()
					}
					return nil
				})
			})
		})
	}
}

func sprint(v interface{}) string {
	if s, ok := v.(string); ok {
		return s
	}
	if e, ok := v.(error); ok {
		return e.Error()
	}
	return ""
}

// A revocable transaction racing an irrevocable owner must never abort
// the owner: the ladder handshake parks revocable attempts while the token
// is held, so the irrevocable core commits with zero aborts even under
// sustained write-write contention. The waiters share the owner's record
// table and token through NewWithTable, modelling two schemes descending
// onto one serialisation point.
func TestWaitPolicyDefersToIrrevocableOwner(t *testing.T) {
	const cores, rounds = 3, 10
	machine := testMachine(cores)
	tok := tm.NewIrrevocableToken(machine.Mem, cores)

	ownerCfg := lineCfg()
	ownerCfg.Progress.Token = tok // zero budget: always irrevocable
	owner := New(machine, ownerCfg)

	waiterCfg := lineCfg()
	waiterCfg.Progress.Token = tok
	waiterCfg.Progress.RetryBudget = 1 << 20 // revocable forever
	waiter := NewWithTable("stm-waiter", machine, waiterCfg, owner.Table())

	ctr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	progs := make([]sim.Program, cores)
	progs[0] = func(c *sim.Ctx) {
		th := owner.Thread(c)
		for i := 0; i < rounds; i++ {
			if err := th.Atomic(func(tx tm.Txn) error {
				v := tx.Load(ctr)
				tx.Exec(400) // a wide window for waiters to collide in
				tx.Store(ctr, v+1)
				return nil
			}); err != nil {
				t.Errorf("owner Atomic: %v", err)
			}
		}
	}
	for i := 1; i < cores; i++ {
		progs[i] = func(c *sim.Ctx) {
			th := waiter.Thread(c)
			for r := 0; r < rounds; r++ {
				if err := th.Atomic(func(tx tm.Txn) error {
					tx.Store(ctr, tx.Load(ctr)+1)
					return nil
				}); err != nil {
					t.Errorf("waiter Atomic: %v", err)
				}
			}
		}
	}
	machine.Run(progs...)
	if got := machine.Mem.Load(ctr); got != cores*rounds {
		t.Fatalf("counter = %d, want %d", got, cores*rounds)
	}
	if ownerAborts := machine.Stats.Block(0).TotalAborts(); ownerAborts != 0 {
		t.Errorf("irrevocable owner aborted %d times; irrevocable means never", ownerAborts)
	}
}

// ladderSuspender injects a context-switch suspension the first few times
// it catches a core inside an irrevocable transaction.
type ladderSuspender struct {
	threads []*Thread
	hits    int
}

func (h *ladderSuspender) OnGrant(c *sim.Ctx) {
	th := h.threads[c.ID()]
	if th == nil || !th.Irrevocable() || h.hits >= 3 {
		return
	}
	h.hits++
	c.InjectSuspend()
}

// A context-switch suspension landing inside an irrevocable transaction
// must not abort it: suspension invalidates hardware marks, not the
// serial-mode guarantee. The transaction resumes and commits.
func TestSuspensionDuringIrrevocableCommits(t *testing.T) {
	machine := testMachine(2)
	s := New(machine, irrevocableCfg(machine))
	hook := &ladderSuspender{threads: make([]*Thread, 2)}
	machine.SetFaultHook(hook)
	ctr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	prog := func(c *sim.Ctx) {
		th := s.Thread(c).(*Thread)
		hook.threads[c.ID()] = th
		for i := 0; i < 5; i++ {
			if err := th.Atomic(func(tx tm.Txn) error {
				v := tx.Load(ctr)
				tx.Exec(300)
				tx.Store(ctr, v+1)
				return nil
			}); err != nil {
				t.Errorf("Atomic: %v", err)
			}
		}
	}
	machine.Run(prog, prog)
	if hook.hits == 0 {
		t.Fatal("fault hook never caught a core in irrevocable mode")
	}
	if got := machine.Mem.Load(ctr); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	for core := 0; core < 2; core++ {
		if aborts := machine.Stats.Block(core).TotalAborts(); aborts != 0 {
			t.Errorf("core %d aborted %d times despite running irrevocably", core, aborts)
		}
	}
}
