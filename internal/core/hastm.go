// Package core implements HASTM — hardware accelerated software
// transactional memory, the paper's primary contribution (§5, §6).
//
// HASTM is the base STM of package stm with the mark-bit ISA extensions
// plugged into its acceleration seam:
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
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// ModePolicy selects how transactions choose between cautious and
// aggressive execution.
type ModePolicy int

const (
	// CautiousOnly never enters aggressive mode (the paper's
	// "HASTM-Cautious" configuration, Fig 17): barriers filter and the
	// mark counter accelerates validation, but reads are always logged.
	CautiousOnly ModePolicy = iota
	// Watermark is the paper's default controller: single-threaded runs
	// go aggressive after the first commit; multi-threaded runs keep a
	// decayed rate of aggressive-unfriendly outcomes (aborts, non-zero
	// mark counters) and go aggressive only below the low watermark.
	Watermark
	// AlwaysAggressive is the naive strawman of Fig 21/22: every first
	// attempt is aggressive (like an HTM-first hybrid), falling back to
	// cautious only for the re-execution after an abort.
	AlwaysAggressive
)

func (p ModePolicy) String() string {
	switch p {
	case CautiousOnly:
		return "cautious-only"
	case Watermark:
		return "watermark"
	case AlwaysAggressive:
		return "always-aggressive"
	default:
		return "mode?"
	}
}

// Config configures a HASTM system.
type Config struct {
	TM   tm.Config
	Mode ModePolicy

	// Filter enables the loadtestmark read-barrier fast path. Disabling
	// it gives the paper's "HASTM-NoReuse" ablation: barriers still mark
	// lines (so mark-counter validation and aggressive mode keep working)
	// but never exploit cache reuse.
	Filter bool

	// SingleThread tells the watermark controller the workload is
	// single-threaded, in which case it always switches to aggressive
	// mode after a transaction commits (§6).
	SingleThread bool

	// LowWatermark is the abort-ratio threshold below which multithreaded
	// transactions run aggressively. Zero means the default (0.1).
	LowWatermark float64

	// TwoLevelFilter enables the §5 two-level option for cache-line
	// granularity: the slow path marks and tests the transaction RECORD
	// as well as the data line, so a read whose data line was evicted can
	// still skip version checking and logging when its record survived.
	// (Records are aliased — many data lines per record — so they are
	// hotter than the data under capacity pressure.)
	TwoLevelFilter bool

	// FilterWrites enables the §5 extension: the second filter plane
	// marks acquired records (skipping re-acquisition checks) and
	// undo-logged 16-byte sub-blocks (skipping duplicate old-value
	// logging). The paper proposes but does not evaluate this; the
	// ext-wfilter experiment measures it.
	FilterWrites bool

	// InterAtomic keeps mark bits across transactions, enabling the
	// Fig 10 inter-atomic redundancy elimination. Only aggressive-mode
	// commits can exploit carried-over marks soundly, so cautious
	// attempts clear them at begin. The paper's measurements keep this
	// off ("we cleared the mark bits at the end of every transaction").
	InterAtomic bool
}

// DefaultConfig returns the paper's standard HASTM configuration at the
// given conflict-detection granularity.
func DefaultConfig(g tm.Granularity) Config {
	return Config{
		TM:     tm.Config{Granularity: g, ValidateEvery: 128},
		Mode:   Watermark,
		Filter: true,
	}
}

const (
	defaultLowWatermark = 0.1
	rateDecay           = 0.9
	modeAggressiveBit   = 1
)

// New creates a HASTM system on machine.
func New(machine *sim.Machine, cfg Config) *stm.System {
	return NewNamed("hastm", machine, cfg)
}

// NewNamed creates a HASTM system with an explicit scheme name (used for
// the ablations: "hastm-cautious", "hastm-noreuse", "naive-aggressive").
func NewNamed(name string, machine *sim.Machine, cfg Config) *stm.System {
	if cfg.LowWatermark == 0 {
		cfg.LowWatermark = defaultLowWatermark
	}
	return stm.NewWithAccel(name, machine, cfg.TM, func(t *stm.Thread) stm.Accel {
		return &accel{cfg: cfg, failRate: 1} // start cautious (§7.4)
	})
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

// recGran is the mark granularity used on transaction records under object
// conflict detection: the paper assumes a minimum 16-byte object size, so
// a 16-byte mark covers the header record.
const recGran = 16

// writePlane is the filter plane used by the write/undo filtering
// extension; plane 0 belongs to the read-barrier/validation machinery.
const writePlane = 1

// accel is the per-thread HASTM state, implementing stm.Accel.
type accel struct {
	cfg        Config
	aggressive bool // mode of the current attempt

	committedOnce bool
	failRate      float64 // decayed rate of aggressive-unfriendly outcomes
	sawMarkLoss   bool    // mark counter went non-zero this attempt

	lastMode    bool // mode of the previous attempt, for transition telemetry
	lastModeSet bool
}

var _ stm.Accel = (*accel)(nil)

func (a *accel) lineMode(t *stm.Thread) bool {
	return t.Config().Granularity == tm.LineGranularity
}

// Begin picks the attempt's mode and prepares the hardware state.
func (a *accel) Begin(t *stm.Thread, attempt int) {
	switch a.cfg.Mode {
	case CautiousOnly:
		a.aggressive = false
	case AlwaysAggressive:
		a.aggressive = attempt == 0
	case Watermark:
		if attempt > 0 {
			a.aggressive = false
		} else if a.cfg.SingleThread {
			a.aggressive = a.committedOnce
		} else {
			a.aggressive = a.committedOnce && a.failRate < a.cfg.LowWatermark
		}
	}
	a.sawMarkLoss = false

	ctx := t.Ctx()
	tb := ctx.Telem()
	if a.aggressive {
		tb.Inc(telemetry.AggressiveAttempts)
	} else {
		tb.Inc(telemetry.CautiousAttempts)
	}
	if !a.lastModeSet || a.lastMode != a.aggressive {
		if a.lastModeSet {
			// A real transition (not the initial mode choice): record it
			// with the watermark value that drove the controller's decision.
			if a.aggressive {
				tb.Inc(telemetry.ModeSwitchAggressive)
			} else {
				tb.Inc(telemetry.ModeSwitchCautious)
			}
			tb.ObserveMax(telemetry.WatermarkPPM, uint64(a.failRate*1e6))
		}
		mode := "cautious"
		if a.aggressive {
			mode = "aggressive"
		}
		ctx.EmitTxn(telemetry.TxnEvent{Txn: t.TxnSeq(), Retry: attempt, Kind: telemetry.EvMode, Cause: mode})
		a.lastMode = a.aggressive
		a.lastModeSet = true
	}
	prev := ctx.SetCat(telemetry.Commit)
	if a.cfg.InterAtomic && !a.aggressive {
		// Carried-over marks are only sound under aggressive commit
		// (which re-checks the counter); cautious filtering must not
		// trust marks it did not set itself.
		ctx.ResetMarkAll()
	}
	ctx.ResetMarkCounter()
	var mode uint64
	if a.aggressive {
		mode = modeAggressiveBit
	}
	ctx.Store(t.ModeAddr(), mode)
	ctx.SetCat(prev)
}

// FilterData is the line-granularity fast path (Fig 7/9 line 1-2):
// loadtestmark_granularity64 loads the datum and tests its line's marks.
func (a *accel) FilterData(t *stm.Thread, addr uint64) (uint64, bool) {
	if !a.cfg.Filter {
		return 0, false
	}
	ctx := t.Ctx()
	prev := ctx.SetCat(telemetry.RdBar)
	v, marked := ctx.LoadTestMark(addr, 64)
	ctx.Exec(1) // jnae complete
	ctx.SetCat(prev)
	return v, marked
}

// FilterRecord is the object-granularity fast path (Fig 5/8 line 1-2) and,
// with TwoLevelFilter, the §5 second-level check in line mode.
func (a *accel) FilterRecord(t *stm.Thread, rec uint64) bool {
	if !a.cfg.Filter {
		return false
	}
	if a.lineMode(t) {
		if !a.cfg.TwoLevelFilter {
			return false // Fig 7: line mode has no record-level filter
		}
		_, marked := t.Ctx().LoadTestMark(rec, 64)
		t.Ctx().Exec(1)
		return marked
	}
	_, marked := t.Ctx().LoadTestMark(rec, recGran)
	return marked
}

// LoadRecordForRead loads the record in the read-barrier slow path. Object
// granularity marks the record (Fig 5); line granularity marks the record
// in aggressive mode (plain mov in Fig 7, loadsetmark in Fig 9) and under
// the two-level option.
func (a *accel) LoadRecordForRead(t *stm.Thread, rec uint64) uint64 {
	ctx := t.Ctx()
	if !a.lineMode(t) {
		return ctx.LoadSetMark(rec, recGran)
	}
	if a.aggressive || a.cfg.TwoLevelFilter {
		return ctx.LoadSetMark(rec, 64)
	}
	return ctx.Load(rec)
}

// ShouldLogRead performs the Fig 8 mode test ("test [txndesc + mode],
// #aggressive; jnz done" — two instructions on the always-hot descriptor
// line); aggressive mode skips the read-set append entirely.
func (a *accel) ShouldLogRead(t *stm.Thread) bool {
	t.Ctx().Exec(2)
	return !a.aggressive
}

// MarkData is the trailing loadsetmark_granularity64 of the line slow path
// (Fig 7/9): it marks the data line and performs the data load.
func (a *accel) MarkData(t *stm.Thread, addr uint64) uint64 {
	ctx := t.Ctx()
	prev := ctx.SetCat(telemetry.RdBar)
	v := ctx.LoadSetMark(addr, 64)
	ctx.SetCat(prev)
	return v
}

// MarkRecordOnWrite marks an acquired record so subsequent read barriers
// take the fast path (§5: "The HASTM write barrier also sets the mark bit
// on the transaction record").
func (a *accel) MarkRecordOnWrite(t *stm.Thread, rec uint64) {
	if !a.cfg.Filter {
		return
	}
	gran := uint64(recGran)
	if a.lineMode(t) {
		gran = 64
	}
	t.Ctx().LoadSetMark(rec, gran)
}

// PreValidate implements Fig 6: a zero mark counter proves no marked line
// was evicted or snooped, so the read set is intact and full validation is
// skipped. Aggressive transactions have no read set to fall back on and
// must abort when the counter is non-zero.
func (a *accel) PreValidate(t *stm.Thread, atCommit bool) (skipFull, ok bool) {
	ctx := t.Ctx()
	markCount := ctx.ReadMarkCounter()
	if atCommit {
		// Fig 6 clears the marks at the validation point; with
		// InterAtomic they are deliberately kept for the next block.
		if !a.cfg.InterAtomic {
			ctx.ResetMarkAll()
		}
	}
	ctx.Exec(2) // compare + branch
	if markCount == 0 {
		return true, true
	}
	ctx.Telem().Inc(telemetry.MarkCounterNonZero)
	a.sawMarkLoss = true
	if a.aggressive {
		return false, false
	}
	return false, true
}

// End records the attempt's outcome for the watermark controller and
// clears the hardware state between transactions.
func (a *accel) End(t *stm.Thread, committed bool) {
	ctx := t.Ctx()
	prev := ctx.SetCat(telemetry.Commit)
	if !a.cfg.InterAtomic {
		ctx.ResetMarkAll()
	}
	if a.cfg.FilterWrites {
		// Ownership/undo facts never outlive the transaction.
		ctx.ResetMarkAllP(writePlane)
	}
	ctx.SetCat(prev)

	if committed {
		a.committedOnce = true
		if a.aggressive {
			ctx.Telem().Inc(telemetry.AggressiveCommits)
		} else {
			ctx.Telem().Inc(telemetry.CautiousCommits)
		}
	}
	// An outcome is aggressive-unfriendly if the attempt aborted or lost
	// marks: either would have doomed an aggressive commit.
	fail := 0.0
	if !committed || a.sawMarkLoss {
		fail = 1.0
	}
	a.failRate = a.failRate*rateDecay + (1-rateDecay)*fail
}

// UndoFilterEnabled reports whether the write-filtering extension is on.
func (a *accel) UndoFilterEnabled() bool { return a.cfg.FilterWrites }

// FilterWriteOwned tests the plane-1 mark on a record: set means this
// transaction acquired the record and the line never left the cache, so
// it is still exclusively owned and the write barrier can be skipped.
func (a *accel) FilterWriteOwned(t *stm.Thread, rec uint64) bool {
	if !a.cfg.FilterWrites {
		return false
	}
	ctx := t.Ctx()
	_, marked := ctx.LoadTestMarkP(writePlane, rec, recGran)
	ctx.Exec(1) // branch
	return marked
}

// MarkWriteOwned marks a freshly acquired record on the write plane.
func (a *accel) MarkWriteOwned(t *stm.Thread, rec uint64) {
	if !a.cfg.FilterWrites {
		return
	}
	t.Ctx().LoadSetMarkP(writePlane, rec, recGran)
}

// FilterUndo tests whether addr's 16-byte sub-block was already
// undo-logged this transaction.
func (a *accel) FilterUndo(t *stm.Thread, addr uint64) bool {
	ctx := t.Ctx()
	_, marked := ctx.LoadTestMarkP(writePlane, addr, 16)
	ctx.Exec(1)
	return marked
}

// MarkUndo marks addr's sub-block as undo-logged.
func (a *accel) MarkUndo(t *stm.Thread, addr uint64) {
	t.Ctx().LoadSetMarkP(writePlane, addr, 16)
}

// OnPartialRollback conservatively discards all plane-1 facts: the nested
// rollback released records and popped undo entries, so neither ownership
// nor logged-ness can be trusted any more.
func (a *accel) OnPartialRollback(t *stm.Thread) {
	if a.cfg.FilterWrites {
		t.Ctx().ResetMarkAllP(writePlane)
	}
}
