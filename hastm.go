// Package hastm is a library-quality reproduction of "Architectural
// Support for Software Transactional Memory" (Saha, Adl-Tabatabai,
// Jacobson — MICRO 2006): hardware-accelerated software transactional
// memory, together with every substrate the paper depends on.
//
// The package bundles:
//
//   - a deterministic, cycle-ordered multi-core machine simulator with
//     per-core L1s, a shared inclusive L2, MESI-style coherence, and the
//     paper's proposed ISA extension — per-thread mark bits on 16-byte
//     cache sub-blocks plus a saturating mark counter (§3);
//   - the base McRT-style STM (§4): eager versioning with an undo log,
//     two-phase locking for writes, optimistic versioned reads, closed
//     nesting with partial rollback, retry/orElse, GC-pause suspension;
//   - HASTM itself (§5, §6): mark-bit read-barrier filtering, mark-counter
//     validation, and the aggressive mode that elides read logging;
//   - the baselines the paper evaluates against: an eager best-effort HTM,
//     HyTM (hardware first, software fallback, Fig 14 barriers), the
//     naive always-aggressive strawman of Figs 21/22, a coarse lock, and
//     plain sequential execution;
//   - the evaluation workloads (hashtable, BST, B-tree, the Fig 15
//     microbenchmark, the Fig 13 trace analysis) and a harness that
//     regenerates every figure of §7.
//
// # Quick start
//
//	machine := hastm.NewMachine(hastm.DefaultMachineConfig(2))
//	sys := hastm.New(machine, hastm.DefaultConfig(hastm.LineGranularity))
//	acct := machine.Mem.Alloc(64, 64)
//	machine.Run(
//		func(c *hastm.Core) {
//			th := sys.Thread(c)
//			_ = th.Atomic(func(tx hastm.Txn) error {
//				tx.Store(acct, tx.Load(acct)+100)
//				return nil
//			})
//		},
//		nil,
//	)
//
// Everything runs in simulated time: Machine.Run returns the wall-clock
// cycle count and Machine.Stats holds the per-category breakdown.
package hastm

import (
	"hastm.dev/hastm/internal/htm"
	"hastm.dev/hastm/internal/locksync"
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/native"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/stm"
	"hastm.dev/hastm/internal/tm"
)

// Machine is the simulated multi-core system. Populate data structures
// through Machine.Mem (zero simulated cost) before calling Run.
type Machine = sim.Machine

// Core is one core's architectural interface, passed to each program.
type Core = sim.Ctx

// Program is the code one core runs.
type Program = sim.Program

// MachineConfig configures a Machine (cores, caches, latencies, the
// Section 3.3 default-ISA mode, interference knobs).
type MachineConfig = sim.Config

// Latencies is the additive cycle-cost model.
type Latencies = sim.Latencies

// System is a concurrency-control scheme bound to a machine; Thread binds
// it to a core.
type System = tm.System

// Thread is a core's handle for running atomic blocks.
type Thread = tm.Thread

// Txn is the transactional access interface inside an atomic block.
type Txn = tm.Txn

// Config configures a HASTM instance.
type Config = stm.HASTMConfig

// TMConfig carries the options shared by the software TMs.
type TMConfig = tm.Config

// Granularity selects object- or cache-line-granularity conflict
// detection.
type Granularity = tm.Granularity

// Conflict-detection granularities (§4).
const (
	ObjectGranularity = tm.ObjectGranularity
	LineGranularity   = tm.LineGranularity
)

// Mode policies for HASTM's aggressive/cautious controller (§6).
const (
	CautiousOnly     = stm.CautiousOnly
	Watermark        = stm.Watermark
	AlwaysAggressive = stm.AlwaysAggressive
)

// ErrUserAbort is returned by Thread.Atomic when the body called Abort.
var ErrUserAbort = tm.ErrUserAbort

// NewMachine builds a simulated machine.
func NewMachine(cfg MachineConfig) *Machine { return sim.New(cfg) }

// DefaultMachineConfig returns the paper-style machine: 32 KB 8-way L1s
// and a shared 512 KB 8-way inclusive L2.
func DefaultMachineConfig(cores int) MachineConfig { return sim.DefaultConfig(cores) }

// DefaultConfig returns the paper's standard HASTM configuration.
func DefaultConfig(g Granularity) Config { return stm.DefaultHASTMConfig(g) }

// New creates a HASTM system (the paper's contribution) on machine.
func New(machine *Machine, cfg Config) System { return stm.NewHASTM("hastm", machine, cfg) }

// NewCautious returns the HASTM-Cautious ablation (no read-log
// elimination).
func NewCautious(machine *Machine, cfg Config) System {
	cfg.Mode = CautiousOnly
	return stm.NewHASTM("hastm-cautious", machine, cfg)
}

// NewNoReuse returns the HASTM-NoReuse ablation (no barrier filtering).
func NewNoReuse(machine *Machine, cfg Config) System {
	cfg.Filter = false
	return stm.NewHASTM("hastm-noreuse", machine, cfg)
}

// NewNaiveAggressive returns the Fig 21/22 strawman that always tries
// aggressive mode first, like an HTM-first hybrid.
func NewNaiveAggressive(machine *Machine, cfg Config) System {
	cfg.Mode = AlwaysAggressive
	return stm.NewHASTM("naive-aggressive", machine, cfg)
}

// NewSTM creates the base software TM of §4.
func NewSTM(machine *Machine, cfg TMConfig) System { return stm.New(machine, cfg) }

// NewHyTM creates the hybrid TM baseline: hardware transactions with the
// Fig 14 barriers, software fallback after maxAttempts hardware aborts
// (<= 0 means the default of 4).
func NewHyTM(machine *Machine, cfg TMConfig, maxAttempts int) System {
	return htm.NewHyTM(machine, cfg, maxAttempts)
}

// NewHTM creates the pure best-effort hardware TM baseline.
func NewHTM(machine *Machine) System { return htm.NewHTM(machine) }

// NewLock creates the coarse-grained spinlock baseline.
func NewLock(machine *Machine) System { return locksync.NewLock(machine) }

// Memory is the flat word-addressed memory shared by the simulator and
// the native backend (Machine.Mem is one of these).
type Memory = mem.Memory

// Native is the host-native TL2 backend: the same tm.Txn programming model
// — Load/Store, closed nesting with partial rollback, retry/orElse,
// explicit abort, the irrevocable escalation ladder — executed by real
// goroutines on real memory with a TL2 global version clock and
// per-stripe versioned write-locks, instead of simulated cores. Nothing
// about it is deterministic or cycle-accounted; it exists to cross-check
// the simulator's STM semantics (the differential conformance suite) and
// to measure real host throughput.
type Native = native.System

// NativeConfig configures the native backend (threads, arena size and
// the escalation ladder's retry budget).
type NativeConfig = native.Config

// NewMemory builds a standalone memory for the native backend. Build and
// populate data structures through it (zero concurrency) BEFORE calling
// NewNative: the system reserves its transactional-allocation arena at
// creation so the page table never grows during a run.
func NewMemory() *Memory { return mem.New() }

// NewNative creates the native TL2 backend on m. Thread(id) — one id per
// goroutine, 0 <= id < cfg.Threads — hands out the transaction handles;
// each backs the arena a 64 KiB chunk at a time as its transactions
// allocate (NativeConfig.ArenaBytes).
func NewNative(m *Memory, cfg NativeConfig) *Native { return native.New(m, cfg) }

// AllocObject allocates a transactional object (header record + payload)
// for object-granularity conflict detection and returns its base address.
func AllocObject(machine *Machine, payloadBytes uint64) uint64 {
	return stm.AllocObject(machine.Mem, payloadBytes)
}

// RecEntry is one read- or write-set entry exposed to log inspectors.
type RecEntry = stm.RecEntry

// UndoEntry is one undo-log entry exposed to log inspectors.
type UndoEntry = stm.UndoEntry

// GCPause suspends the thread's in-flight transaction so a collector or
// tool can inspect (and patch) its logs, then resumes WITHOUT aborting —
// the §5 language-environment integration that pure HTMs cannot offer.
// The hardware cost is a ring transition: the mark bits are discarded, so
// the transaction merely falls back to full software validation. The
// thread must belong to a software TM (STM or HASTM) and be inside Atomic.
func GCPause(th Thread, inspect func(reads, writes []RecEntry, undo []UndoEntry)) {
	st, ok := th.(*stm.Thread)
	if !ok {
		panic("hastm: GCPause requires a software-TM thread (STM or HASTM)")
	}
	st.GCPause(inspect)
}
