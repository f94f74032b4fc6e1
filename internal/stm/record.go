// Package stm implements the paper's base software transactional memory
// (§4): strict two-phase locking for writes, optimistic concurrency control
// with versioning for reads, in-place updates with an undo log (eager
// version management), and eager conflict detection — the McRT-STM lineage
// the paper builds on.
//
// The same barriers are HASTM (§5, §6): a thread bound with a HASTMConfig
// runs the mark-bit steps written inline in Thread's barriers, validation,
// begin and end; without one they are skipped and the base STM remains.
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
	size := max(8+payloadBytes, 16)
	base := m.Alloc(size, 16)
	InitObjectRecord(m, base)
	return base
}
