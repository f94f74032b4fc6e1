// Package telemetry is the TM stack's one metrics store: simulated-cycle
// attribution (the execution-time breakdown of the paper's Figure 12),
// the abort-cause taxonomy (Figs 21/22), and a typed taxonomy of
// transactional events (commits, barrier outcomes, mode transitions,
// mark-counter observations, log high-water marks), all recorded into one
// per-thread, cache-line-padded Block with plain (non-atomic) adds on the
// hot path — one writer per simulated core or host thread — and merged only
// at report time. Every reported name is declared once, in the tables below.
//
// The package also provides the per-transaction JSONL event trace behind
// `hastm-bench -trace` (see trace.go) and the mutex-guarded line writer
// that keeps concurrent progress/trace output from interleaving.
package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Category labels where simulated cycles are spent.
type Category int

const (
	// App is the transactional application work itself (data loads/stores
	// and compute between barriers).
	App Category = iota
	// TLS is access to the thread-local transaction descriptor.
	TLS
	// RdBar is the STM/HASTM read barrier.
	RdBar
	// WrBar is the STM/HASTM write barrier, including undo logging.
	WrBar
	// Validate is read-set validation (periodic and at commit).
	Validate
	// Commit is transaction commit/abort bookkeeping other than validation.
	Commit
	// Lock is lock acquire/release in the lock baseline.
	Lock
	// HTM is hardware-transaction begin/commit/abort overhead and HyTM
	// barrier checks.
	HTM
	numCategories
)

var categoryNames = [numCategories]string{
	App:      "app",
	TLS:      "tls",
	RdBar:    "rdbar",
	WrBar:    "wrbar",
	Validate: "validate",
	Commit:   "commit",
	Lock:     "lock",
	HTM:      "htm",
}

func (c Category) String() string { return nameOf(categoryNames[:], "Category", int(c)) }

// Categories lists all categories in display order.
func Categories() []Category { return upTo(numCategories) }

// AbortCause classifies transaction aborts. The software-conflict causes
// are split the way the paper's analysis needs them split: a read-set
// validation failure (§3.2/§4 — some record a transaction read changed
// version underneath it) is a different phenomenon from a write-lock
// conflict (contention management gave up waiting for a record another
// transaction owns), and the aggressive-mode mark-counter abort (§6) is a
// third thing entirely — not a data conflict at all, merely the loss of
// the ability to prove there wasn't one.
type AbortCause int

const (
	// AbortValidation is a read-set validation failure: a logged
	// transaction record no longer holds the version recorded at read time.
	AbortValidation AbortCause = iota
	// AbortLockConflict is an ownership (write-lock) conflict: a bounded
	// wait gave up on a record owned exclusively by another transaction.
	AbortLockConflict
	// AbortAggressive is an aggressive-mode commit failure: the mark
	// counter was non-zero, so the unlogged read set could not be trusted.
	AbortAggressive
	// AbortCapacity is an HTM abort caused by a transactional line leaving
	// the cache (eviction or back-invalidation), i.e. a spurious abort.
	AbortCapacity
	// AbortHTMConflict is an HTM abort caused by a remote coherence
	// request hitting the transaction's read or write set.
	AbortHTMConflict
	// AbortExplicit is a user- or retry-initiated abort.
	AbortExplicit
	numAbortCauses
)

var abortNames = [numAbortCauses]string{
	AbortValidation:   "read-validation",
	AbortLockConflict: "lock-conflict",
	AbortAggressive:   "aggressive-markctr",
	AbortCapacity:     "htm-capacity",
	AbortHTMConflict:  "htm-conflict",
	AbortExplicit:     "explicit",
}

func (a AbortCause) String() string { return nameOf(abortNames[:], "AbortCause", int(a)) }

// AbortCauses lists every cause in display order.
func AbortCauses() []AbortCause { return upTo(numAbortCauses) }

// IsConflict reports whether the cause is a true software data conflict
// (validation failure or lock conflict) — the causes contention management
// backs off for.
func (a AbortCause) IsConflict() bool {
	return a == AbortValidation || a == AbortLockConflict
}

// Counter is one monotonically increasing event count.
type Counter int

const (
	// Commits counts committed transactions (critical sections, on the locks).
	Commits Counter = iota
	// Retries counts retry-waits: attempts ended by Retry and parked.
	Retries
	// FilteredReads counts read barriers answered by the mark-bit fast path.
	FilteredReads
	// UnfilteredReads counts read barriers that took the full software path.
	UnfilteredReads
	// FastValidations counts validations answered by markCounter==0.
	FastValidations
	// FullValidations counts validations that walked the read set.
	FullValidations
	// ReadsLogged counts read-set appends.
	ReadsLogged
	// ReadLogsSkipped counts read-set appends avoided in aggressive mode.
	ReadLogsSkipped
	// FilteredWrites counts write barriers answered by the plane-1 fast path.
	FilteredWrites
	// UndoLogsSkipped counts undo-log appends avoided by plane-1 marks.
	UndoLogsSkipped
	// AggressiveCommits counts transactions committed in aggressive mode.
	AggressiveCommits
	// CautiousCommits counts transactions committed in cautious mode.
	CautiousCommits
	// HTMFallbacks counts hybrid transactions that abandoned hardware
	// execution for the software path.
	HTMFallbacks
	// WaitCycles accumulates cycles spent spinning on locks/contention.
	WaitCycles
	// ModeSwitchAggressive counts cautious->aggressive transitions by the
	// HASTM mode controller (§6).
	ModeSwitchAggressive
	// ModeSwitchCautious counts aggressive->cautious transitions (including
	// the forced fallback re-execution after an aggressive abort).
	ModeSwitchCautious
	// MarkCounterNonZero counts validations that observed a non-zero mark
	// counter: a marked line was evicted, snooped or discarded by a ring
	// transition since the transaction began (§3, Fig 6).
	MarkCounterNonZero
	// AggressiveAttempts counts transaction attempts begun in aggressive
	// mode (read-set logging elided, Fig 8/9).
	AggressiveAttempts
	// CautiousAttempts counts transaction attempts begun in cautious mode.
	CautiousAttempts
	// LockAcquires counts coarse-lock critical-section entries in the lock
	// baseline.
	LockAcquires
	// Escalations counts transactions whose retry budget ran out, forcing
	// entry into serial irrevocable mode (the last rung of the escalation
	// ladder).
	Escalations
	// IrrevocableEntries counts successful acquisitions of the global
	// irrevocable token (one per escalated attempt that actually ran
	// irrevocably).
	IrrevocableEntries
	// IrrevocableCyclesHeld accumulates the simulated cycles the irrevocable
	// token was held, from acquisition to release at commit.
	IrrevocableCyclesHeld
	// WriteBufferHits counts deferred-update (lazy/mvcc) transactional loads
	// served from the transaction's own write buffer — the
	// read-through-own-writes path.
	WriteBufferHits
	// SnapshotReads counts MVCC read barriers executed in snapshot mode
	// (read-only so far, validating against the begin-time snapshot instead
	// of logging for commit-time revalidation).
	SnapshotReads
	// VersionHistoryReads counts snapshot reads served from a location's
	// retained version history rather than current memory — the reads that
	// would have been validation aborts under a single-version scheme.
	VersionHistoryReads
	// MVCCUpgrades counts snapshot attempts that reached their first store
	// with a still-current snapshot and upgraded in place to writer mode.
	MVCCUpgrades
	// MVCCWriterRestarts counts snapshot attempts whose first store found
	// the snapshot stale, forcing a restart of the attempt in writer mode.
	MVCCWriterRestarts
	// SnapshotAborts counts aborts of attempts still in snapshot mode. For
	// read-only MVCC transactions this is the "never abort" guarantee's
	// counter: tests assert it stays zero (the only possible cause is a
	// version-history prune miss).
	SnapshotAborts
	// ChaosInjected counts native chaos-plane injections that actually
	// fired (stalls, preemptions, spurious aborts, delayed wakeups).
	ChaosInjected
	// WakeupTimeouts counts retry waiters whose bounded waitForChange
	// deadline expired without a commit notification, forcing a watch-set
	// re-validation — the counted degradation of a lost or delayed wakeup.
	WakeupTimeouts
	// ContainedFaults counts foreign panics contained inside native atomic
	// blocks and surfaced as TxnFault errors.
	ContainedFaults
	numCounters
)

// A counter is reported in the `-json` cell's "stats" block (one member per
// counter, in declaration order), in its "telemetry" block's "counters"
// map, or in both.
const (
	inStats = 1 << iota
	inTelemetry
)

var counterTable = [numCounters]struct {
	name   string
	blocks int
}{
	Commits:               {"commits", inStats},
	Retries:               {"retries", inStats},
	FilteredReads:         {"filtered_reads", inStats},
	UnfilteredReads:       {"unfiltered_reads", inStats},
	FastValidations:       {"fast_validations", inStats},
	FullValidations:       {"full_validations", inStats},
	ReadsLogged:           {"reads_logged", inStats},
	ReadLogsSkipped:       {"read_logs_skipped", inStats},
	FilteredWrites:        {"filtered_writes", inStats},
	UndoLogsSkipped:       {"undo_logs_skipped", inStats},
	AggressiveCommits:     {"aggressive_commits", inStats},
	CautiousCommits:       {"cautious_commits", inStats},
	HTMFallbacks:          {"htm_fallbacks", inStats | inTelemetry},
	WaitCycles:            {"wait_cycles", inStats},
	ModeSwitchAggressive:  {"mode_switch_aggressive", inTelemetry},
	ModeSwitchCautious:    {"mode_switch_cautious", inTelemetry},
	MarkCounterNonZero:    {"mark_counter_nonzero", inTelemetry},
	AggressiveAttempts:    {"aggressive_attempts", inTelemetry},
	CautiousAttempts:      {"cautious_attempts", inTelemetry},
	LockAcquires:          {"lock_acquires", inTelemetry},
	Escalations:           {"escalations", inTelemetry},
	IrrevocableEntries:    {"irrevocable_entries", inTelemetry},
	IrrevocableCyclesHeld: {"irrevocable_cycles_held", inTelemetry},
	WriteBufferHits:       {"write_buffer_hits", inTelemetry},
	SnapshotReads:         {"snapshot_reads", inTelemetry},
	VersionHistoryReads:   {"version_history_reads", inTelemetry},
	MVCCUpgrades:          {"mvcc_upgrades", inTelemetry},
	MVCCWriterRestarts:    {"mvcc_writer_restarts", inTelemetry},
	SnapshotAborts:        {"snapshot_aborts", inTelemetry},
	ChaosInjected:         {"chaos_injected", inTelemetry},
	WakeupTimeouts:        {"wakeup_timeouts", inTelemetry},
	ContainedFaults:       {"contained_faults", inTelemetry},
}

func (c Counter) String() string {
	if c >= 0 && c < numCounters {
		return counterTable[c].name
	}
	return fmt.Sprintf("Counter(%d)", int(c))
}

// Gauge is a high-water mark: merged by maximum, per thread and at report
// time.
type Gauge int

const (
	// ReadSetHWM is the largest read-set (logged reads) any transaction
	// reached.
	ReadSetHWM Gauge = iota
	// WriteSetHWM is the largest write-set any transaction reached.
	WriteSetHWM
	// UndoLogHWM is the largest undo log any transaction reached.
	UndoLogHWM
	// RetryDepthHWM is the largest attempt index any transaction needed
	// before committing (0 = every transaction committed first try).
	RetryDepthHWM
	// WatermarkPPM is the mode controller's decayed failure rate, in parts
	// per million, observed at mode-transition points — the watermark value
	// that triggered the switch.
	WatermarkPPM
	// WriteBufferHWM is the largest write buffer (deferred stores, including
	// superseded entries) any lazy/mvcc transaction reached.
	WriteBufferHWM
	numGauges
)

var gaugeNames = [numGauges]string{
	ReadSetHWM:     "read_set_hwm",
	WriteSetHWM:    "write_set_hwm",
	UndoLogHWM:     "undo_log_hwm",
	RetryDepthHWM:  "retry_depth_hwm",
	WatermarkPPM:   "watermark_ppm",
	WriteBufferHWM: "write_buffer_hwm",
}

func (g Gauge) String() string { return nameOf(gaugeNames[:], "Gauge", int(g)) }

func nameOf(names []string, kind string, i int) string {
	if i >= 0 && i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("%s(%d)", kind, i)
}

func upTo[T ~int](n T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = T(i)
	}
	return out
}

// blockPayloadWords is the number of accounting words in a Block.
const blockPayloadWords = int(numCategories) + int(numAbortCauses) + int(numCounters) + int(numGauges)

// blockPadWords rounds the block up to a multiple of 8 words (64 bytes) so
// adjacent threads' blocks never share a cache line.
const blockPadWords = (8 - blockPayloadWords%8) % 8

// Block is one thread's accounting block. All mutation happens from that
// thread (one simulated core == one writer), so increments are plain adds:
// no atomics, no locks, nothing on the hot path but an indexed add. The
// trailing padding keeps blocks on distinct cache lines inside a Machine's
// slice, so one core's writes never false-share with another's. A Block is
// also the shape of a report-time merge (Machine.Totals).
type Block struct {
	cycles [numCategories]uint64
	aborts [numAbortCauses]uint64
	counts [numCounters]uint64
	gauges [numGauges]uint64
	_      [blockPadWords]uint64
}

// Charge attributes simulated cycles to a category.
func (b *Block) Charge(cat Category, cycles uint64) { b.cycles[cat] += cycles }

// Cycles returns the cycles attributed to a category.
func (b *Block) Cycles(cat Category) uint64 { return b.cycles[cat] }

// Abort counts one abort of the given cause.
func (b *Block) Abort(cause AbortCause) { b.aborts[cause]++ }

// Aborts returns the aborts of one cause.
func (b *Block) Aborts(cause AbortCause) uint64 { return b.aborts[cause] }

// Inc adds one to a counter.
func (b *Block) Inc(c Counter) { b.counts[c]++ }

// Add adds n to a counter.
func (b *Block) Add(c Counter, n uint64) { b.counts[c] += n }

// Count returns a counter's current value.
func (b *Block) Count(c Counter) uint64 { return b.counts[c] }

// ObserveMax raises a gauge to v if v exceeds its current value.
func (b *Block) ObserveMax(g Gauge, v uint64) {
	if v > b.gauges[g] {
		b.gauges[g] = v
	}
}

// TotalCycles sums the cycles of every category.
func (b Block) TotalCycles() uint64 { return sum(b.cycles[:]) }

// TotalAborts sums aborts over all causes.
func (b Block) TotalAborts() uint64 { return sum(b.aborts[:]) }

func sum(vals []uint64) (t uint64) {
	for _, v := range vals {
		t += v
	}
	return t
}

// Machine holds one padded block per simulated core or host thread.
type Machine struct {
	blocks []Block
}

// NewMachine returns accounting storage for n threads.
func NewMachine(n int) *Machine { return &Machine{blocks: make([]Block, n)} }

// Block returns thread i's block.
func (m *Machine) Block(i int) *Block { return &m.blocks[i] }

// Reset zeroes every block, e.g. at the end of a warmup phase so that only
// steady-state behaviour is reported.
func (m *Machine) Reset() { clear(m.blocks) }

// Totals is the report-time merge of every block: cycles, aborts and
// counters sum across threads; gauges merge by maximum. A nil Machine — the
// store of a cell that never ran — merges to zeros, as do all the queries
// below.
func (m *Machine) Totals() Block {
	var t Block
	if m == nil {
		return t
	}
	for i := range m.blocks {
		b := &m.blocks[i]
		for j, v := range b.cycles {
			t.cycles[j] += v
		}
		for j, v := range b.aborts {
			t.aborts[j] += v
		}
		for j, v := range b.counts {
			t.counts[j] += v
		}
		for j, v := range b.gauges {
			t.ObserveMax(Gauge(j), v)
		}
	}
	return t
}

// Count sums one counter over every block.
func (m *Machine) Count(c Counter) uint64 { return m.Totals().counts[c] }

// Aborts sums aborts of one cause over every block.
func (m *Machine) Aborts(cause AbortCause) uint64 { return m.Totals().aborts[cause] }

// CategoryCycles sums one category over every block.
func (m *Machine) CategoryCycles(cat Category) uint64 { return m.Totals().cycles[cat] }

// Commits sums committed transactions over every block.
func (m *Machine) Commits() uint64 { return m.Count(Commits) }

// TotalCycles sums attributed cycles over every block.
func (m *Machine) TotalCycles() uint64 { return m.Totals().TotalCycles() }

// TotalAborts sums aborts of every cause over every block.
func (m *Machine) TotalAborts() uint64 { return m.Totals().TotalAborts() }

// CategoryShare is one row of Breakdown.
type CategoryShare struct {
	Category Category
	Cycles   uint64
	Share    float64
}

// Breakdown returns the fraction of total cycles per category, skipping
// empty categories, sorted by descending share.
func (m *Machine) Breakdown() []CategoryShare {
	t := m.Totals()
	total := t.TotalCycles()
	var out []CategoryShare
	for cat, c := range t.cycles {
		if c > 0 {
			out = append(out, CategoryShare{Category: Category(cat), Cycles: c, Share: float64(c) / float64(total)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cycles > out[j].Cycles })
	return out
}

// String renders the breakdown compactly, e.g. "rdbar 38.2% validate 21.0% ...".
func (m *Machine) String() string {
	var b strings.Builder
	for i, s := range m.Breakdown() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s %.1f%%", s.Category, s.Share*100)
	}
	return b.String()
}

// Report is the pair of `-json` cell blocks a merged Block renders to.
type Report struct {
	Stats     json.RawMessage `json:"stats"`
	Telemetry json.RawMessage `json:"telemetry,omitempty"`
}

// named returns the non-zero vals keyed by their metric's name — as a map,
// so encoding/json renders the group with sorted keys — or nil if all are
// zero.
func named[T interface {
	~int
	String() string
}](vals []uint64) map[string]uint64 {
	var m map[string]uint64
	for i, v := range vals {
		if v > 0 {
			if m == nil {
				m = make(map[string]uint64)
			}
			m[T(i).String()] = v
		}
	}
	return m
}

// Report renders the block, zero values omitted so records stay readable
// and stable as metrics are added. The stats block is the cycle breakdown
// and the abort causes as name-keyed groups around the stats counters in
// declaration order ({} when empty); the telemetry block is the event
// counters and the gauges, each a name-keyed group (absent when empty).
func (b Block) Report() Report {
	stats := []byte{'{'}
	member := func(name string, v any) {
		if len(stats) > 1 {
			stats = append(stats, ',')
		}
		raw, _ := json.Marshal(v) // a uint64 or a map of them: cannot fail
		stats = append(strconv.AppendQuote(stats, name), ':')
		stats = append(stats, raw...)
	}
	if cycles := named[Category](b.cycles[:]); cycles != nil {
		member("cycles", cycles)
	}
	aborts, events := named[AbortCause](b.aborts[:]), b.counts
	for c, row := range counterTable {
		if row.blocks&inStats != 0 && b.counts[c] > 0 {
			member(row.name, b.counts[c])
		}
		if Counter(c) == Commits && aborts != nil {
			member("aborts", aborts)
		}
		if row.blocks&inTelemetry == 0 {
			events[c] = 0
		}
	}
	r := Report{Stats: append(stats, '}')}
	t := struct {
		Counters map[string]uint64 `json:"counters,omitempty"`
		Gauges   map[string]uint64 `json:"gauges,omitempty"`
	}{named[Counter](events[:]), named[Gauge](b.gauges[:])}
	if t.Counters != nil || t.Gauges != nil {
		r.Telemetry, _ = json.Marshal(t)
	}
	return r
}

// MarshalJSON renders both report blocks as one object.
func (b Block) MarshalJSON() ([]byte, error) { return json.Marshal(b.Report()) }
