// Package stm implements the paper's base software transactional memory
// (§4): strict two-phase locking for writes, optimistic concurrency control
// with versioning for reads, in-place updates with an undo log (eager
// version management), and eager conflict detection — the McRT-STM lineage
// the paper builds on.
//
// The same engine also hosts HASTM: the hardware-acceleration points are
// factored into the Accel interface, implemented by package core. A nil
// Accel gives the pure software STM.
package stm

import (
	"hastm.dev/hastm/internal/mem"
)

// VersionInit is the initial version number of a transaction record. In the
// shared state a record holds an odd version number; in the exclusive state
// it holds the (word-aligned, hence even) address of the owning
// transaction's descriptor.
const VersionInit = 1

// IsVersion reports whether a transaction-record value is a version number
// (shared state) rather than an owner pointer (exclusive state).
func IsVersion(v uint64) bool { return v&1 == 1 }

// NextVersion returns the version that releases a record previously at
// version v (commit and abort both increment, §4).
func NextVersion(v uint64) uint64 { return v + 2 }

// TableEntries is the number of records in the global transaction-record
// table: address bits 6–17 index it, per the paper's barrier code
// ("and rec, 0x3ffc0").
const TableEntries = 4096

// tableIndexMask extracts bits 6..17 of a data address; because records are
// cache-line (64-byte) aligned the extracted bits offset the table directly.
const tableIndexMask = 0x3ffc0

// RecordTable is the global table of transaction records used for
// cache-line-granularity conflict detection in unmanaged environments.
// Records are 64-byte aligned "to prevent ping-ponging".
type RecordTable struct {
	base uint64
}

// NewRecordTable allocates the table in simulated memory with every record
// at VersionInit. Its whole pages share mem's head page until a record on
// them is first written, so the table costs host memory only where a run
// acquires or releases records.
func NewRecordTable(m *mem.Memory) *RecordTable {
	return &RecordTable{base: m.AllocLinesHeaded(TableEntries, VersionInit)}
}

// RecordFor maps a data address to its transaction record's address:
//
//	mov rec, addr; and rec, 0x3ffc0; add rec, TxRecTableBase
func (t *RecordTable) RecordFor(addr uint64) uint64 {
	return t.base + (addr & tableIndexMask)
}

// Base returns the table's base address (TxRecTableBase).
func (t *RecordTable) Base() uint64 { return t.base }

// InitObjectRecord initialises the transaction record in an object header
// (the word at base) to the shared state. Every transactional object must
// be initialised this way before use.
func InitObjectRecord(m *mem.Memory, base uint64) {
	m.Store(base, VersionInit)
}

// AllocObject allocates a transactional object with the given payload size
// in bytes and an initialised header record, returning its base address.
// Fields live at base+8, base+16, ... Objects are 16-byte aligned and at
// least 16 bytes, the paper's minimum non-empty object size for object-based
// conflict detection.
func AllocObject(m *mem.Memory, payloadBytes uint64) uint64 {
	size := 8 + payloadBytes
	if size < 16 {
		size = 16
	}
	base := m.Alloc(size, 16)
	InitObjectRecord(m, base)
	return base
}

// Accel is the set of hardware-acceleration hooks HASTM (package core)
// plugs into the STM engine. All hooks charge their own simulated cycles.
// A nil Accel yields the base STM.
type Accel interface {
	// Begin is called at the start of every transaction attempt. attempt
	// is 0 for the first execution, >0 for re-executions after aborts.
	Begin(t *Thread, attempt int)

	// FilterData implements the line-granularity fast path (Fig 7/9): it
	// loads the word at addr with loadtestmark and reports whether the
	// covering line is marked, in which case the whole barrier is done.
	FilterData(t *Thread, addr uint64) (val uint64, filtered bool)

	// FilterRecord implements the object-granularity fast path (Fig 5/8):
	// loadtestmark on the record; a set mark bit means the record was
	// barriered before and its line never left the cache.
	FilterRecord(t *Thread, rec uint64) bool

	// LoadRecordForRead loads a record inside the read-barrier slow path.
	// HASTM uses loadsetmark here so the next barrier filters.
	LoadRecordForRead(t *Thread, rec uint64) uint64

	// ShouldLogRead reports whether the read barrier must append to the
	// read set (false in aggressive mode, Fig 8). The hook charges the
	// mode-test instructions.
	ShouldLogRead(t *Thread) bool

	// MarkData marks the data line after a line-granularity slow path and
	// performs the data load (the trailing loadsetmark_granularity64 of
	// Fig 7/9 loads the value into eax).
	MarkData(t *Thread, addr uint64) uint64

	// MarkRecordOnWrite marks a record acquired by the write barrier so
	// subsequent read barriers filter.
	MarkRecordOnWrite(t *Thread, rec uint64)

	// PreValidate runs before a (periodic or commit) validation.
	// skipFull=true means the mark counter proved the read set intact.
	// ok=false means the transaction cannot be validated and must abort
	// (aggressive mode with a non-zero mark counter).
	PreValidate(t *Thread, atCommit bool) (skipFull, ok bool)

	// End is called after commit or final abort of an attempt.
	End(t *Thread, committed bool)

	// The write-filtering extension (§5: "an implementation could also
	// filter STM write barrier and undo logging operations using
	// additional mark bits"). When UndoFilterEnabled, the engine logs
	// undo at 16-byte sub-block granularity and consults the hooks; a
	// disabled extension returns false / no-ops at zero cost.

	// UndoFilterEnabled reports whether the extension is active.
	UndoFilterEnabled() bool
	// FilterWriteOwned tests the second filter plane on a record: a set
	// mark proves this transaction still owns the record, so the whole
	// write barrier can be skipped.
	FilterWriteOwned(t *Thread, rec uint64) bool
	// MarkWriteOwned marks an acquired record on the second plane.
	MarkWriteOwned(t *Thread, rec uint64)
	// FilterUndo tests the second plane on a data sub-block: a set mark
	// proves the sub-block was already undo-logged this transaction.
	FilterUndo(t *Thread, addr uint64) bool
	// MarkUndo marks a data sub-block as undo-logged.
	MarkUndo(t *Thread, addr uint64)
	// OnPartialRollback is called after a nested rollback released
	// records and popped undo entries; the extension must invalidate its
	// plane-1 marks (conservatively, all of them) or later filtered
	// writes would trust stale ownership/logging facts.
	OnPartialRollback(t *Thread)
}
