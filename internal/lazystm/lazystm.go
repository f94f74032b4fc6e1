// Package lazystm implements a deferred-update (lazy version management)
// software transactional memory on the same transaction-record protocol as
// package stm, plus a multi-version (MVCC) variant whose read-only
// transactions never abort.
//
// Where the eager STM of package stm acquires ownership at first store and
// updates in place behind an undo log, the lazy scheme buffers every store
// in a per-transaction write buffer (read-through-own-writes) and touches
// shared data only inside its commit protocol:
//
//  1. Acquire the transaction record of every buffered address with a CAS,
//     in ascending record order. Ascending order means two committers can
//     never hold records the other needs in a cycle; a bounded
//     contention-policy wait backstops the proof, failing the commit with
//     a lock-conflict abort.
//  2. Validate the read set — every logged record must still hold its
//     logged version (or be self-owned at that version) — BEFORE any data
//     word is written. This is the sandboxing step: a transaction that read
//     inconsistent data is caught while its effects are still private.
//  3. Write back the buffered values (latest value per address) and
//     release every record at the next version.
//
// A failed commit releases its acquired records at their ORIGINAL displaced
// versions: no data changed under them, so concurrent readers that
// validated against those versions remain valid, and the no-bump release
// cannot produce ABA (nobody can log a read of a record while it is
// exclusively owned). Abort-path rollback is therefore pure log truncation
// — nothing the attempt did ever reached shared memory.
//
// The MVCC variant adds a global commit clock and a small per-location
// version history, both advanced inside writer commits. Every attempt
// starts in snapshot mode: it reads the clock at begin and serves each read
// from current memory if the location's last-writer timestamp is within the
// snapshot, or from the retained history otherwise. A snapshot attempt that
// never stores commits without validation and without touching the clock —
// read-only MVCC transactions never abort (the only abort a snapshot
// attempt can take is a history prune miss, counted by the
// snapshot_aborts telemetry counter and asserted zero in tests). The first
// store upgrades the attempt in place to the lazy writer protocol when the
// snapshot is still current, and otherwise restarts the attempt pinned to
// writer mode (a writer-restart trace terminal, not an abort; at most one
// restart per transaction). Snapshot readers never wait on other readers
// and writers never wait on readers, so the snapshot read path's bounded
// lock wait (a writer's finite commit section) cannot deadlock. While a
// transaction is irrevocable every other core is drained, so its snapshot
// can never go stale and a writer restart is impossible — the serial
// attempt keeps its no-abort guarantee.
//
// Both schemes are a tm.Protocol under the shared tm.Engine (thread.go), so
// closed nesting, retry/orElse, explicit abort, the escalation ladder and
// the trace/telemetry planes are the eager STM's own code; stm.Base
// supplies the read log and the rest of the version-management-independent
// half.
package lazystm

import (
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/stm"
	"hastm.dev/hastm/internal/tm"
)

// histDepth is how many displaced versions the MVCC variant retains per
// location. A snapshot older than the history's reach takes a prune-miss
// abort — the one abort a snapshot attempt can suffer.
const histDepth = 16

// histChunk is how many histories one slab allocation holds.
const histChunk = 32

// histVersion is one retained version: val was the location's value until
// some writer displaced it, and ts is the commit timestamp of the write
// that MADE val current — so val serves any snapshot taken in [ts, next
// entry's ts).
type histVersion struct {
	ts  uint64
	val uint64
}

// history is one location's multi-version state: the commit timestamp of
// its newest write and the displaced older versions in a fixed ring, so
// recording a version allocates nothing once the location has one.
// at(0) is the oldest retained version.
type history struct {
	lastTS  uint64
	n, head int // retained count; ring index of the oldest
	v       [histDepth]histVersion
}

func (h *history) at(i int) histVersion { return h.v[(h.head+i)%histDepth] }

// push retains x as the newest version, displacing the oldest once full.
func (h *history) push(x histVersion) {
	h.v[(h.head+h.n)%histDepth] = x // the oldest's slot once full
	if h.n < histDepth {
		h.n++
	} else {
		h.head = (h.head + 1) % histDepth
	}
}

// System is a deferred-update TM instantiated on a machine.
type System struct {
	name    string
	machine *sim.Machine
	cfg     tm.Config
	table   *stm.RecordTable
	mvcc    bool

	// clock is the global commit clock's simulated address (MVCC only):
	// CAS-incremented by every writer commit, loaded once per snapshot
	// attempt at begin.
	clock uint64

	// hist is the multi-version store (MVCC only), keyed by location. It is
	// Go-side model state mutated and read ONLY inside ctx.Step closures,
	// so the machine's one-op-at-a-time grant order serialises all access
	// (same discipline as the allocator). Histories are carved from
	// histChunk-sized slabs: a run overwrites hundreds of distinct words and
	// one allocation each was most of an MVCC cell's allocation count.
	hist     map[uint64]*history
	histSlab []history
}

// historyOf returns addr's history, creating it on the first overwrite.
func (s *System) historyOf(addr uint64) *history {
	h := s.hist[addr]
	if h == nil {
		if len(s.histSlab) == 0 {
			s.histSlab = make([]history, histChunk)
		}
		h, s.histSlab = &s.histSlab[0], s.histSlab[1:]
		s.hist[addr] = h
	}
	return h
}

var _ tm.System = (*System)(nil)

// New creates the lazy (deferred-update, single-version) STM on machine.
func New(machine *sim.Machine, cfg tm.Config) *System {
	return newSystem("lazy", machine, cfg, false)
}

// NewMVCC creates the multi-version variant: lazy writers plus a commit
// clock and per-location version history giving read-only transactions an
// abort-free snapshot read path.
func NewMVCC(machine *sim.Machine, cfg tm.Config) *System {
	return newSystem("mvcc", machine, cfg, true)
}

func newSystem(name string, machine *sim.Machine, cfg tm.Config, mvcc bool) *System {
	if cfg.Progress.RetryBudget > 0 && cfg.Progress.Token == nil {
		cfg.Progress.Token = tm.NewIrrevocableToken(machine.Mem, machine.Config().Cores)
	}
	s := &System{
		name:    name,
		machine: machine,
		cfg:     cfg,
		table:   stm.NewRecordTable(machine.Mem),
		mvcc:    mvcc,
	}
	if mvcc {
		// The clock gets its own cache line: every writer commit CASes it,
		// and false sharing with a transaction record would put phantom
		// conflicts into the figures.
		s.clock = machine.Mem.Alloc(mem.LineSize, mem.LineSize)
		machine.Mem.Store(s.clock, 0)
		s.hist = make(map[uint64]*history)
	}
	return s
}

// Progress returns the resolved progress configuration (including any
// allocated token).
func (s *System) Progress() tm.Progress { return s.cfg.Progress }

// Name identifies the scheme ("lazy" or "mvcc").
func (s *System) Name() string { return s.name }

// Table returns the global transaction-record table.
func (s *System) Table() *stm.RecordTable { return s.table }

// Machine returns the machine this system runs on.
func (s *System) Machine() *sim.Machine { return s.machine }

// Thread binds the scheme to one core. The descriptor, TLS slot and the
// read/write-buffer logs live in simulated memory so logging has real cache
// cost, exactly as in the eager engine.
func (s *System) Thread(ctx *sim.Ctx) tm.Thread {
	t := &Thread{
		sys:    s,
		wbIdx:  make(map[uint64]int, 64),
		acqVer: make(map[uint64]uint64, 64),
	}
	t.Init(t, ctx, &s.cfg, s.table, s.name, 2)
	return t
}
