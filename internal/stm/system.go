package stm

import (
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/tm"
)

// System is a software TM instantiated on a machine: the base STM of §4,
// or HASTM when its hastm configuration is set (NewHASTM).
type System struct {
	name    string
	machine *sim.Machine
	cfg     tm.Config
	table   *RecordTable
	hastm   *HASTMConfig
}

var _ tm.System = (*System)(nil)

// New creates the base STM on machine.
func New(machine *sim.Machine, cfg tm.Config) *System {
	return NewWithTable("stm", machine, cfg, NewRecordTable(machine.Mem))
}

// NewWithTable creates the base STM over an externally owned record table,
// so a hybrid scheme's hardware path and its software fallback can detect
// conflicts against the same records. When the escalation ladder is
// enabled (Progress.RetryBudget > 0) and no token was supplied, one is
// allocated here; schemes sharing a record table should also share a token
// (pass it in Config.Progress.Token).
func NewWithTable(name string, machine *sim.Machine, cfg tm.Config, table *RecordTable) *System {
	if cfg.Progress.RetryBudget > 0 && cfg.Progress.Token == nil {
		cfg.Progress.Token = tm.NewIrrevocableToken(machine.Mem, machine.Config().Cores)
	}
	return &System{
		name:    name,
		machine: machine,
		cfg:     cfg,
		table:   table,
	}
}

// Progress returns the resolved progress configuration (including the
// allocated token), so a hybrid scheme's hardware half can share it.
func (s *System) Progress() tm.Progress { return s.cfg.Progress }

// Name identifies the scheme.
func (s *System) Name() string { return s.name }

// Table returns the global transaction-record table.
func (s *System) Table() *RecordTable { return s.table }

// Machine returns the machine this system runs on.
func (s *System) Machine() *sim.Machine { return s.machine }

// Thread binds the STM to one core (see Base.Init for what is reserved in
// simulated memory).
func (s *System) Thread(ctx *sim.Ctx) tm.Thread {
	t := &Thread{writeVer: make(map[uint64]uint64, 64)}
	t.Init(t, ctx, &s.cfg, s.table, "stm", 3)
	if s.hastm != nil {
		t.hw = newHASTM(s.hastm, s.cfg.Granularity)
	}
	return t
}
