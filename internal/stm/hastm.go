package stm

import (
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// ModePolicy selects how HASTM transactions choose between cautious and
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

// HASTMConfig configures HASTM: this package's STM with the mark-bit ISA
// extensions in its barriers (§5, §6).
type HASTMConfig struct {
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

	// FilterWrites enables the §5 extension at line granularity (NewHASTM
	// panics at object granularity): the second filter plane marks acquired
	// records (skipping re-acquisition checks) and undo-logged 16-byte
	// sub-blocks (skipping duplicate old-value logging). The paper proposes
	// but does not evaluate it; the ext-wfilter experiment measures it.
	FilterWrites bool

	// InterAtomic keeps mark bits across transactions, enabling the
	// Fig 10 inter-atomic redundancy elimination. Only aggressive-mode
	// commits can exploit carried-over marks soundly, so cautious
	// attempts clear them at begin. The paper's measurements keep this
	// off ("we cleared the mark bits at the end of every transaction").
	InterAtomic bool
}

const (
	// lowWatermark is the rate of aggressive-unfriendly outcomes below
	// which multithreaded transactions run aggressively.
	lowWatermark      = 0.1
	rateDecay         = 0.9
	modeAggressiveBit = 1
	// writePlane is the filter plane of the write/undo filtering
	// extension; plane 0 belongs to the read barrier and validation.
	writePlane = 1
	// subBlock is the write plane's mark granularity, on records and on
	// undo-logged data alike: the paper's minimum object size.
	subBlock = 16
)

// NewHASTM creates a HASTM system: the STM whose barriers run the mark-bit
// steps cfg enables.
func NewHASTM(name string, machine *sim.Machine, cfg HASTMConfig) *System {
	if cfg.FilterWrites && cfg.TM.Granularity == tm.ObjectGranularity {
		panic("stm: FilterWrites needs line granularity: at object granularity a field in the header's sub-block loses its undo entry")
	}
	s := NewWithTable(name, machine, cfg.TM, NewRecordTable(machine.Mem))
	s.hastm = &cfg
	return s
}

// hastm is one thread's HASTM state; Thread.hw is nil for the base STM.
type hastm struct {
	HASTMConfig
	// gran is the mark granularity on transaction records, fixed when the
	// thread is bound: a cache line under line granularity, the 16-byte
	// minimum object under object granularity.
	gran uint64

	aggressive    bool // mode of the current attempt
	sawMarkLoss   bool // mark counter went non-zero this attempt
	committedOnce bool
	failRate      float64 // decayed rate of aggressive-unfriendly outcomes

	lastMode    bool // mode of the previous attempt, for transition telemetry
	lastModeSet bool
}

func newHASTM(cfg *HASTMConfig, g tm.Granularity) *hastm {
	gran := uint64(subBlock)
	if g == tm.LineGranularity {
		gran = mem.LineSize
	}
	return &hastm{HASTMConfig: *cfg, gran: gran, failRate: 1} // start cautious (§7.4)
}

// line reports whether conflicts are detected per cache line (Fig 7/9)
// rather than per object (Fig 5/8).
func (h *hastm) line() bool { return h.gran == mem.LineSize }

// chooseMode is the §6 mode controller: it picks the attempt's mode and
// records the choice and any transition.
func (h *hastm) chooseMode(t *Thread, attempt int) {
	switch h.Mode {
	case CautiousOnly:
		h.aggressive = false
	case AlwaysAggressive:
		h.aggressive = attempt == 0
	case Watermark:
		if attempt > 0 {
			h.aggressive = false
		} else if h.SingleThread {
			h.aggressive = h.committedOnce
		} else {
			h.aggressive = h.committedOnce && h.failRate < lowWatermark
		}
	}
	h.sawMarkLoss = false

	ctx := t.ctx
	tb := ctx.Telem()
	if h.aggressive {
		tb.Inc(telemetry.AggressiveAttempts)
	} else {
		tb.Inc(telemetry.CautiousAttempts)
	}
	if h.lastModeSet && h.lastMode == h.aggressive {
		return
	}
	if h.lastModeSet {
		// A real transition (not the initial mode choice): record it with
		// the watermark value that drove the controller's decision.
		if h.aggressive {
			tb.Inc(telemetry.ModeSwitchAggressive)
		} else {
			tb.Inc(telemetry.ModeSwitchCautious)
		}
		tb.ObserveMax(telemetry.WatermarkPPM, uint64(h.failRate*1e6))
	}
	mode := "cautious"
	if h.aggressive {
		mode = "aggressive"
	}
	ctx.EmitTxn(telemetry.TxnEvent{Txn: t.TxnSeq(), Retry: attempt, Kind: telemetry.EvMode, Cause: mode})
	h.lastMode, h.lastModeSet = h.aggressive, true
}

// recordOutcome feeds an attempt's outcome to the controller. An outcome is
// aggressive-unfriendly if the attempt aborted or lost marks: either would
// have doomed an aggressive commit.
func (h *hastm) recordOutcome(tb *telemetry.Block, committed bool) {
	if committed {
		h.committedOnce = true
		if h.aggressive {
			tb.Inc(telemetry.AggressiveCommits)
		} else {
			tb.Inc(telemetry.CautiousCommits)
		}
	}
	fail := 0.0
	if !committed || h.sawMarkLoss {
		fail = 1.0
	}
	h.failRate = h.failRate*rateDecay + (1-rateDecay)*fail
}
