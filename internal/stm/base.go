package stm

import (
	"fmt"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// Descriptor layout (simulated memory): word i holds the append pointer of
// log i — 0 the read set, 1 the write set (eager) or write buffer (lazy),
// 2 the undo log. The descriptor address is always word-aligned, hence
// even, which is what distinguishes an owner pointer from an odd version
// number in a transaction record.
const (
	logReads = 0
	descMode = 24 // mode word (aggressive flag, used by HASTM)
	descSize = 64 // one cache line, avoids false sharing
)

// LogCap is the capacity of each per-thread log in entries; each entry is
// two words (EntryBytes).
const (
	LogCap     = 1 << 15
	EntryBytes = 16
)

// RecEntry is one read- or write-set entry: a transaction-record address
// and the version it held when logged.
type RecEntry struct {
	Rec uint64
	Ver uint64
}

// Base is the half of a simulator STM thread that does not depend on
// version management: the core context, the descriptor and logs in
// simulated memory, the read log and retry wait set, contention management
// and the escalation-ladder handshake. The eager Thread of this package and
// lazystm's deferred-update Thread both embed it, and through it the shared
// tm.Engine; each adds its write path and commit protocol.
type Base struct {
	tm.Engine
	ctx   *sim.Ctx
	cfg   *tm.Config
	table *RecordTable

	desc uint64    // descriptor in simulated memory
	tls  uint64    // simulated TLS slot holding the descriptor pointer
	logs [3]uint64 // log array base addresses in simulated memory
	used int       // how many of logs this protocol keeps

	// Reads is the Go-side mirror of the simulated read log (identical
	// contents; the simulated stores charge the real cache/cycle costs).
	Reads []RecEntry
	watch []RecEntry // retry wait-set accumulated across rollbacks

	// ladder is a dedicated backoff for token waits so they never perturb
	// the contention backoff's state.
	backoff, ladder    *tm.Backoff
	irrevStart         uint64 // clock at token acquisition, for cycles-held accounting
	readsSinceValidate int
}

// Init binds the thread to its core and engine and reserves its descriptor,
// TLS slot and nLogs logs in simulated memory, so that logging has real
// cache cost — log stores can evict marked lines, one of the effects
// HASTM's aggressive mode removes. label is the watchdog status label.
func (b *Base) Init(p tm.Protocol, ctx *sim.Ctx, cfg *tm.Config, table *RecordTable, label string, nLogs int) {
	b.ctx, b.cfg, b.table, b.used = ctx, cfg, table, nLogs
	b.backoff, b.ladder = tm.NewBackoff(ctx.ID()), tm.NewBackoff(ctx.ID())
	b.Bind(p, ctx, ctx.Telem(), label, cfg.Progress.RetryBudget, cfg.Progress.Token != nil)
	// The allocator is shared machine state: reserve everything inside one
	// architectural step so concurrent thread creation stays deterministic
	// and race-free.
	ctx.Step(func(m *sim.Machine) uint64 {
		b.desc = m.Mem.Alloc(descSize, mem.LineSize)
		b.tls = m.Mem.Alloc(mem.LineSize, mem.LineSize)
		for i := 0; i < nLogs; i++ {
			b.logs[i] = m.Mem.Alloc(LogCap*EntryBytes, mem.LineSize)
		}
		m.Mem.Store(b.tls, b.desc)
		return 16
	})
}

// Ctx returns the core context this thread runs on.
func (b *Base) Ctx() *sim.Ctx { return b.ctx }

// ID returns the core id (the backend-neutral thread index).
func (b *Base) ID() int { return b.ctx.ID() }

// Stamp returns the simulated clock, the serialization stamp of the most
// recently completed atomic block on the cycle-ordered simulator.
func (b *Base) Stamp() uint64 { return b.ctx.Clock() }

// Desc returns the simulated address of the transaction descriptor.
func (b *Base) Desc() uint64 { return b.desc }

// LogAddr returns the simulated base address of log i.
func (b *Base) LogAddr(i int) uint64 { return b.logs[i] }

// Exec charges application compute to the simulated clock (attributed to
// the App category, since the body runs at that category).
func (b *Base) Exec(n uint64) { b.ctx.Exec(n) }

// Alloc reserves memory for a new object; aborts leak it (GC semantics).
func (b *Base) Alloc(size, align uint64) uint64 { return b.ctx.Alloc(size, align) }

// StoreInit initialises not-yet-published memory without barriers.
func (b *Base) StoreInit(addr, val uint64) { b.ctx.Store(addr, val) }

// --- Attempt begin and the simulated logs ------------------------------------

// BeginLogs resets the read log for a new attempt (and the wait set for a
// new transaction, attempt 0) and charges the begin sequence: the inlined
// barriers keep the descriptor in a register (Fig 4), so TLS is charged
// once per transaction attempt, here, followed by the descriptor setup that
// rewinds every log pointer.
func (b *Base) BeginLogs(attempt int) {
	if attempt == 0 {
		b.watch = b.watch[:0]
	}
	b.Reads = b.Reads[:0]
	b.readsSinceValidate = 0

	ctx := b.ctx
	prev := ctx.SetCat(telemetry.TLS)
	ctx.Load(b.tls) // gettxndesc
	ctx.SetCat(telemetry.Commit)
	ctx.Exec(4) // descriptor setup
	for i := 0; i < b.used; i++ {
		ctx.Store(b.desc+uint64(i)*8, b.logs[i])
	}
	ctx.SetCat(prev)
}

// AppendLog writes one two-word entry to simulated log i, bumping its
// pointer in the descriptor. The caller keeps the Go-side mirror.
func (b *Base) AppendLog(i int, w0, w1 uint64) {
	ctx := b.ctx
	ptr := b.desc + uint64(i)*8
	logPtr := ctx.Load(ptr)
	ctx.Exec(3) // overflow test, branch, pointer add
	ctx.Store(ptr, logPtr+EntryBytes)
	ctx.Store(logPtr, w0)
	ctx.Store(logPtr+8, w1)
}

// LogRead appends (rec, ver) to the read set.
func (b *Base) LogRead(rec, ver uint64) {
	if len(b.Reads) >= LogCap {
		panic("stm: read-set log overflow; raise LogCap or shorten the transaction")
	}
	b.AppendLog(logReads, rec, ver)
	b.Reads = append(b.Reads, RecEntry{rec, ver})
	b.ctx.Telem().Inc(telemetry.ReadsLogged)
}

// RecordFor maps a data address to its transaction record, charging the
// record-address computation (mov/and/add, Fig 7) to the given category.
func (b *Base) RecordFor(addr uint64, cat telemetry.Category) uint64 {
	prev := b.ctx.SetCat(cat)
	b.ctx.Exec(3)
	b.ctx.SetCat(prev)
	return b.table.RecordFor(addr)
}

// AppLoad performs the data load of a read barrier at the App category.
func (b *Base) AppLoad(addr uint64) uint64 {
	prev := b.ctx.SetCat(telemetry.App)
	v := b.ctx.Load(addr)
	b.ctx.SetCat(prev)
	return v
}

// ObjectField reports whether an object-field access takes the object's
// header word as its record (object granularity, managed-environment
// style); off must then clear the header. Under line granularity the access
// degenerates to a plain transactional access of base+off.
func (b *Base) ObjectField(op string, off uint64) bool {
	if b.cfg.Granularity != tm.ObjectGranularity {
		return false
	}
	if off < 8 {
		panic(fmt.Sprintf("stm: %s offset %d overlaps the header", op, off))
	}
	return true
}

// --- Contention and validation -------------------------------------------------

// WaitShared is the bounded wait for a foreign-owned record: it returns the
// record's version once it is shared again, or false after 16 backoff
// rounds (two waiters can own records the other needs, so it must give up).
func (b *Base) WaitShared(rec uint64) (uint64, bool) {
	ctx := b.ctx
	wait := tm.NewBackoff(ctx.ID())
	for spin := 0; spin < 16; spin++ {
		wait.Wait(ctx)
		v := ctx.Load(rec)
		ctx.Exec(2)
		if IsVersion(v) {
			return v, true
		}
	}
	return 0, false
}

// HandleContention resolves an ownership conflict met inside a barrier,
// returning the record's version once it is shared again, or aborting the
// transaction (by panic).
func (b *Base) HandleContention(rec uint64) uint64 {
	v, ok := b.WaitShared(rec)
	if !ok {
		panic(tm.AbortSignal{Cause: telemetry.AbortLockConflict})
	}
	return v
}

// ValidateReads is the full read-set validation loop: every logged record
// must still hold its logged version, or be owned by this thread having
// displaced exactly that version (owned maps record -> displaced version).
func (b *Base) ValidateReads(owned map[uint64]uint64) bool {
	ctx := b.ctx
	ctx.Telem().Inc(telemetry.FullValidations)
	b.emitValidate("full")
	ctx.Exec(2) // loop setup
	for _, e := range b.Reads {
		cur := ctx.Load(e.Rec)
		ctx.Exec(2) // compare + branch
		if cur == e.Ver {
			continue
		}
		if cur == b.desc {
			ctx.Exec(2)
			if owned[e.Rec] == e.Ver {
				continue // we own it and acquired it at the version we read
			}
		}
		return false
	}
	return true
}

// emitValidate records a read-set validation on the trace: cause "fast"
// (the mark counter proved the read set intact) or "full" (it was walked).
func (b *Base) emitValidate(cause string) {
	b.ctx.EmitTxn(telemetry.TxnEvent{Txn: b.TxnSeq(), Retry: b.Attempt(),
		Kind: telemetry.EvValidate, Cause: cause, Reads: len(b.Reads)})
}

// ReadsConsistentWith re-checks the read set directly against memory at
// zero simulated cost; used only to classify foreign panics as zombie
// effects (tm.Protocol.ReadsConsistent).
func (b *Base) ReadsConsistentWith(owned map[uint64]uint64) bool {
	m := b.ctx.Machine().Mem
	for _, e := range b.Reads {
		cur := m.Load(e.Rec)
		if cur != e.Ver && !(cur == b.desc && owned[e.Rec] == e.Ver) {
			return false
		}
	}
	return true
}

// ValidationDue counts one read barrier and reports whether the periodic
// validation that bounds zombie execution (every ValidateEvery barriers)
// is due.
func (b *Base) ValidationDue() bool {
	every := b.cfg.ValidateEvery
	if every <= 0 {
		return false
	}
	b.readsSinceValidate++
	if b.readsSinceValidate < every {
		return false
	}
	b.readsSinceValidate = 0
	return true
}

// --- tm.Protocol: the hooks both version-management schemes share ------------

// WatchReadsFrom appends read-set entries at index >= n to the retry watch
// set.
func (b *Base) WatchReadsFrom(n int) int {
	b.watch = append(b.watch, b.Reads[n:]...)
	return len(b.watch)
}

// WaitForChange blocks (in simulated time) until some watched record's
// version changes. An empty watch set, or a long wait, returns anyway — a
// spurious wakeup, which retry semantics permit.
func (b *Base) WaitForChange() {
	ctx := b.ctx
	prev := ctx.SetCat(telemetry.Validate)
	defer ctx.SetCat(prev)
	if len(b.watch) == 0 {
		b.backoff.Wait(ctx)
		return
	}
	for poll := 0; poll < 1000; poll++ {
		for _, e := range b.watch {
			cur := ctx.Load(e.Rec)
			ctx.Exec(2)
			if cur != e.Ver {
				return
			}
		}
		b.backoff.Wait(ctx)
	}
}

// Backoff charges the contention backoff between a true data conflict and
// the re-execution; other causes re-execute at once.
func (b *Base) Backoff(cause telemetry.AbortCause) error {
	if cause.IsConflict() {
		b.backoff.Wait(b.ctx)
	}
	return nil
}

// ChargeAbort charges the bookkeeping of an abandoned attempt, the last
// step of the eager and the lazy RollbackAll.
func (b *Base) ChargeAbort() {
	prev := b.ctx.SetCat(telemetry.Commit)
	b.ctx.Exec(8)
	b.ctx.SetCat(prev)
}

// EndAttempt clears the contention backoff after a commit.
func (b *Base) EndAttempt(committed bool) {
	if committed {
		b.backoff.Reset()
	}
}

// EnterLadder is the simulator's ladder entry: a revocable attempt
// announces itself on the shared token (waiting out any irrevocable owner);
// an escalating one acquires the token and drains every other core's
// in-flight attempt. Token traffic is real simulated memory traffic,
// charged to the lock category, so the ladder's cost shows up honestly in
// figures.
func (b *Base) EnterLadder(irrevocable bool) {
	tok, ctx := b.cfg.Progress.Token, b.ctx
	prev := ctx.SetCat(telemetry.Lock)
	if irrevocable {
		tok.Acquire(ctx, b.ladder)
		b.irrevStart = ctx.Clock()
	} else {
		tok.EnterShared(ctx, b.ladder)
	}
	ctx.SetCat(prev)
	b.ladder.Reset()
}

// ExitLadder releases the token (accounting the cycles it was held) after
// an irrevocable attempt and withdraws the active flag after a revocable
// one.
func (b *Base) ExitLadder(irrevocable bool) {
	tok, ctx := b.cfg.Progress.Token, b.ctx
	prev := ctx.SetCat(telemetry.Lock)
	if irrevocable {
		ctx.Telem().Add(telemetry.IrrevocableCyclesHeld, ctx.Clock()-b.irrevStart)
		tok.Release(ctx)
	} else {
		tok.ExitShared(ctx)
	}
	ctx.SetCat(prev)
}
