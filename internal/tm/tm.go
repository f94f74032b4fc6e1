// Package tm defines the transactional-memory abstraction that every
// concurrency-control scheme in this repository implements: the base STM,
// HASTM (the paper's contribution), the HTM/HyTM baselines, the coarse lock
// baseline and the sequential baseline. Workloads are written once against
// these interfaces and run unchanged under every scheme. It also holds the
// one transaction engine (engine.go) that every transactional scheme, the
// HTM/HyTM hardware path included, runs as a Protocol bound to an Engine.
package tm

import (
	"errors"

	"hastm.dev/hastm/internal/sim"
)

// Granularity selects how data maps to transaction records (§4).
type Granularity int

const (
	// ObjectGranularity: every object carries a transaction record in its
	// header word, as in managed environments.
	ObjectGranularity Granularity = iota
	// LineGranularity: a variable's address hashes (bits 6–17) into a
	// global table of cache-line-aligned transaction records, as in
	// unmanaged environments.
	LineGranularity
)

func (g Granularity) String() string {
	if g == ObjectGranularity {
		return "object"
	}
	return "cache-line"
}

// ErrUserAbort is returned by Atomic when the body called Txn.Abort.
var ErrUserAbort = errors.New("tm: transaction aborted by user")

// System is one concurrency-control scheme instantiated on a machine.
type System interface {
	// Name identifies the scheme ("stm", "hastm", "hytm", "lock", ...).
	Name() string
	// Thread binds the scheme to one core. Call once per core program.
	Thread(ctx *sim.Ctx) Thread
}

// Thread is a thread's handle for running atomic blocks: a simulated core
// on the simulator backends, a host goroutine on the native backend.
type Thread interface {
	// Atomic runs body as a transaction, transparently re-executing on
	// conflict aborts, until it commits or the body fails:
	//   - body returns nil  -> commit, Atomic returns nil
	//   - body returns err  -> roll back, Atomic returns err
	//   - body calls Abort  -> roll back, Atomic returns ErrUserAbort
	//   - body calls Retry  -> roll back, wait for a change, re-execute
	Atomic(body func(Txn) error) error
	// ID returns the thread's stable index: the simulated core id, or the
	// goroutine slot on the host-native backend.
	ID() int
	// Stamp returns the serialization stamp of the most recently completed
	// atomic block: the simulated core clock on the simulator backends, or
	// the TL2 commit timestamp on the native backend. Committed-op logs
	// sorted by stamp reproduce the run's equivalent serial order.
	Stamp() uint64
}

// Txn is the access interface the body of an atomic block uses.
type Txn interface {
	// Load transactionally reads the word at addr (line-granularity
	// conflict detection on addr's record).
	Load(addr uint64) uint64
	// Store transactionally writes the word at addr.
	Store(addr, val uint64)

	// LoadObj reads field at offset off of the object whose header (the
	// transaction record) is at base. off must be >= 8 (the header word).
	LoadObj(base, off uint64) uint64
	// StoreObj writes a field of the object at base.
	StoreObj(base, off, val uint64)

	// Atomic runs body as a closed-nested transaction with partial
	// rollback: an abort or error inside rolls back only the nested
	// transaction's effects.
	Atomic(body func(Txn) error) error
	// OrElse runs the alternatives as nested transactions left to right;
	// an alternative that calls Retry is rolled back and the next one
	// runs. If all retry, the retry propagates outward.
	OrElse(alternatives ...func(Txn) error) error

	// Retry aborts the innermost atomic block and blocks its re-execution
	// until some previously read location may have changed.
	Retry()
	// Abort abandons the whole transaction; Atomic returns ErrUserAbort.
	Abort()

	// Exec charges n instructions of application compute (hashing,
	// comparisons, pointer arithmetic) to the simulated clock.
	Exec(n uint64)

	// Alloc reserves simulated memory for a new object (bump allocation;
	// an abort merely leaks it, as a GC would reclaim). Deterministic:
	// the allocation is a serialised architectural step.
	Alloc(size, align uint64) uint64

	// StoreInit initialises freshly allocated, still-private memory
	// without concurrency control — the standard TM-runtime treatment of
	// objects that have not yet been published.
	StoreInit(addr, val uint64)
}

// Config carries the knobs shared by the software TM systems.
type Config struct {
	Granularity Granularity
	// ValidateEvery triggers a periodic read-set validation after this
	// many read barriers; 0 validates only at commit.
	ValidateEvery int
	// Progress configures the escalation ladder (serial irrevocable mode).
	Progress Progress
}

// Progress configures the budget-triggered escalation to serial
// irrevocable mode: after RetryBudget failed attempts of one transaction,
// the thread acquires a global token in simulated memory, drains every
// other core's active attempt, and runs with no abort path.
type Progress struct {
	// RetryBudget is the number of failed attempts of one transaction
	// before escalating to irrevocable mode. 0 disables the ladder.
	RetryBudget int
	// Token is the shared irrevocable token. Leave nil to have the system
	// allocate one; systems that share a record table (HyTM's hardware and
	// software halves) must also share a token.
	Token *IrrevocableToken
}

// Backoff implements deterministic exponential backoff, charging the wait
// to the simulated clock.
type Backoff struct {
	attempt uint
	rng     uint64
}

// NewBackoff seeds the backoff's jitter deterministically per core. The
// raw per-core seed (core*2654435761 + 1) is mixed through the splitmix64
// finalizer so every core — core 0 included, whose raw seed is just 1 —
// gets a full-strength xorshift stream rather than one that starts in a
// low-entropy region of the state space.
func NewBackoff(core int) *Backoff {
	z := uint64(core)*2654435761 + 1
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // xorshift must never be seeded with 0
	}
	return &Backoff{rng: z}
}

func (b *Backoff) next() uint64 {
	b.rng ^= b.rng << 13
	b.rng ^= b.rng >> 7
	b.rng ^= b.rng << 17
	return b.rng
}

// Wait charges an exponentially growing, jittered number of cycles.
func (b *Backoff) Wait(ctx *sim.Ctx) {
	if b.attempt < 10 {
		b.attempt++
	}
	window := uint64(1) << (4 + b.attempt) // 32 .. 16K cycles
	ctx.Exec(window/2 + b.next()%window)
}

// Reset clears the backoff after success.
func (b *Backoff) Reset() { b.attempt = 0 }
