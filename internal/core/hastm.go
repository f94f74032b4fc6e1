// Package core keeps the two names bench/ladder.go builds its HASTM rungs
// from. HASTM itself, its configuration and its ablations are package stm's
// (stm.NewHASTM, stm.DefaultHASTMConfig); the benchmark change that moves
// the ladder to those names deletes this file.
package core

import (
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/stm"
	"hastm.dev/hastm/internal/tm"
)

// DefaultConfig is stm.DefaultHASTMConfig.
func DefaultConfig(g tm.Granularity) stm.HASTMConfig { return stm.DefaultHASTMConfig(g) }

// New creates a HASTM system on machine under the scheme name "hastm".
func New(machine *sim.Machine, cfg stm.HASTMConfig) *stm.System {
	return stm.NewHASTM("hastm", machine, cfg)
}
