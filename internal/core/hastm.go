// Package core names HASTM — hardware accelerated software transactional
// memory, the paper's primary contribution (§5, §6) — and its ablations.
//
// HASTM is the base STM of package stm with the mark-bit steps written
// into its barriers (stm.Thread):
//
//   - Cautious mode (§5): loadtestmark filters redundant read barriers
//     (Fig 5 object-granularity, Fig 7 cache-line granularity) and the
//     mark counter short-circuits read-set validation (Fig 6).
//   - Aggressive mode (§6): the read barrier additionally skips read-set
//     logging (Fig 8/9); commit succeeds only if the mark counter stayed
//     zero, otherwise the transaction aborts and re-executes cautiously.
//
// Transactions always execute in software, so everything the STM supports
// — nesting with partial rollback, retry/orElse, GC-pause suspension,
// unbounded size and duration — is accelerated, never restricted.
package core

import (
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/stm"
	"hastm.dev/hastm/internal/tm"
)

// Config configures a HASTM system.
type Config = stm.HASTMConfig

// ModePolicy selects how transactions choose between cautious and
// aggressive execution.
type ModePolicy = stm.ModePolicy

// The mode policies (§6, Fig 17, Fig 21/22).
const (
	CautiousOnly     = stm.CautiousOnly
	Watermark        = stm.Watermark
	AlwaysAggressive = stm.AlwaysAggressive
)

// DefaultConfig returns the paper's standard HASTM configuration at the
// given conflict-detection granularity.
func DefaultConfig(g tm.Granularity) Config {
	return Config{
		TM:     tm.Config{Granularity: g, ValidateEvery: 128},
		Mode:   Watermark,
		Filter: true,
	}
}

// New creates a HASTM system on machine.
func New(machine *sim.Machine, cfg Config) *stm.System {
	return NewNamed("hastm", machine, cfg)
}

// NewNamed creates a HASTM system with an explicit scheme name (used for
// the ablations: "hastm-cautious", "hastm-noreuse", "naive-aggressive").
func NewNamed(name string, machine *sim.Machine, cfg Config) *stm.System {
	return stm.NewHASTM(name, machine, cfg)
}

// NewCautious returns the HASTM-Cautious ablation.
func NewCautious(machine *sim.Machine, cfg Config) *stm.System {
	cfg.Mode = CautiousOnly
	return NewNamed("hastm-cautious", machine, cfg)
}

// NewNoReuse returns the HASTM-NoReuse ablation.
func NewNoReuse(machine *sim.Machine, cfg Config) *stm.System {
	cfg.Filter = false
	return NewNamed("hastm-noreuse", machine, cfg)
}

// NewNaiveAggressive returns the Fig 21/22 strawman that, like an
// HTM-first hybrid, always tries aggressive execution first.
func NewNaiveAggressive(machine *sim.Machine, cfg Config) *stm.System {
	cfg.Mode = AlwaysAggressive
	return NewNamed("naive-aggressive", machine, cfg)
}
