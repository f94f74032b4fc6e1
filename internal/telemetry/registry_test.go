package telemetry

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// registeredNames returns every reported name of the four kinds, in
// declaration order.
func registeredNames() []string {
	var names []string
	for _, c := range Categories() {
		names = append(names, c.String())
	}
	for _, a := range AbortCauses() {
		names = append(names, a.String())
	}
	for c := Counter(0); c < numCounters; c++ {
		names = append(names, c.String())
	}
	for g := Gauge(0); g < numGauges; g++ {
		names = append(names, g.String())
	}
	return names
}

// Blocks must start on distinct cache lines inside a Machine's slice, or
// two cores' hot-path increments would false-share.
func TestBlockIsCacheLineMultiple(t *testing.T) {
	if s := unsafe.Sizeof(Block{}); s%64 != 0 {
		t.Fatalf("Block size %d is not a multiple of 64 bytes", s)
	}
}

func TestNamesAreStable(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range registeredNames() {
		if name == "" || strings.Contains(name, "(") {
			t.Errorf("a registered metric has no name (got %q)", name)
		}
		if seen[name] {
			t.Errorf("name %q is registered twice", name)
		}
		seen[name] = true
	}
	for c, row := range counterTable {
		if row.blocks == 0 {
			t.Errorf("counter %s is reported in no block", Counter(c))
		}
	}
	for got, want := range map[string]string{
		Category(99).String():   "Category(99)",
		AbortCause(99).String(): "AbortCause(99)",
		Counter(99).String():    "Counter(99)",
		Gauge(99).String():      "Gauge(99)",
	} {
		if got != want {
			t.Errorf("out-of-range name %q, want the diagnostic %q", got, want)
		}
	}
}

func TestCategoryNames(t *testing.T) {
	if got := len(Categories()); got != 8 || Categories()[0] != App || Categories()[7] != HTM {
		t.Errorf("Categories() = %v, want the 8 categories in display order", Categories())
	}
}

func TestAbortCauseNames(t *testing.T) {
	if got := len(AbortCauses()); got != 6 || AbortCauses()[0] != AbortValidation {
		t.Errorf("AbortCauses() = %v, want the 6 causes in display order", AbortCauses())
	}
	for _, a := range AbortCauses() {
		if want := a == AbortValidation || a == AbortLockConflict; a.IsConflict() != want {
			t.Errorf("%s.IsConflict() = %v", a, !want)
		}
	}
}

func TestCountersAndGaugesMerge(t *testing.T) {
	m := NewMachine(3)
	m.Block(0).Inc(ModeSwitchAggressive)
	m.Block(0).Add(ModeSwitchAggressive, 2)
	m.Block(2).Inc(ModeSwitchAggressive)
	m.Block(1).ObserveMax(ReadSetHWM, 40)
	m.Block(2).ObserveMax(ReadSetHWM, 17)
	m.Block(2).ObserveMax(ReadSetHWM, 5) // lower: must not shrink

	if got := m.Count(ModeSwitchAggressive); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	if got := m.GaugeMax(ReadSetHWM); got != 40 {
		t.Fatalf("GaugeMax = %d, want 40", got)
	}
	if got := m.Block(2).gauges[ReadSetHWM]; got != 17 {
		t.Fatalf("per-block gauge = %d, want 17", got)
	}
	tot := m.Totals()
	if tot.Count(ModeSwitchAggressive) != 4 || tot.gauges[ReadSetHWM] != 40 {
		t.Fatalf("Totals = %+v", tot)
	}
	if got, want := string(tot.Report().Telemetry), `{"counters":{"mode_switch_aggressive":4},"gauges":{"read_set_hwm":40}}`; got != want {
		t.Fatalf("zero entries must be omitted from the report:\n got %s\nwant %s", got, want)
	}

	m.Block(1).Charge(App, 9)
	m.Block(1).Abort(AbortExplicit)
	m.Reset()
	if tot := m.Totals(); tot != (Block{}) {
		t.Fatalf("Totals after Reset = %+v", tot)
	}
	var none *Machine
	if none.Commits() != 0 || none.TotalAborts() != 0 || none.Breakdown() != nil {
		t.Fatal("a nil Machine must report zeros")
	}
}

func TestTotals(t *testing.T) {
	m := NewMachine(2)
	m.Block(0).Charge(App, 100)
	m.Block(0).Charge(RdBar, 50)
	m.Block(1).Charge(App, 25)
	if got := m.TotalCycles(); got != 175 {
		t.Fatalf("TotalCycles = %d", got)
	}
	if got := m.CategoryCycles(App); got != 125 {
		t.Fatalf("CategoryCycles(App) = %d", got)
	}
	if got := m.Block(0).TotalCycles(); got != 150 {
		t.Fatalf("core 0 TotalCycles = %d", got)
	}
}

func TestBreakdownSharesSumToOne(t *testing.T) {
	f := func(app, rd, wr, val uint16) bool {
		m := NewMachine(1)
		m.Block(0).Charge(App, uint64(app))
		m.Block(0).Charge(RdBar, uint64(rd))
		m.Block(0).Charge(WrBar, uint64(wr))
		m.Block(0).Charge(Validate, uint64(val))
		bd := m.Breakdown()
		if m.TotalCycles() == 0 {
			return bd == nil
		}
		var sum float64
		for i, s := range bd {
			sum += s.Share
			if i > 0 && bd[i-1].Cycles < s.Cycles {
				return false // must be sorted descending
			}
		}
		return sum > 0.9999 && sum < 1.0001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAbortAccounting(t *testing.T) {
	m := NewMachine(2)
	for i := 0; i < 3; i++ {
		m.Block(0).Abort(AbortValidation)
	}
	m.Block(1).Abort(AbortAggressive)
	m.Block(1).Abort(AbortAggressive)
	m.Block(1).Add(Commits, 5)
	if m.TotalAborts() != 5 {
		t.Fatalf("TotalAborts = %d", m.TotalAborts())
	}
	if m.Aborts(AbortValidation) != 3 || m.Block(1).Aborts(AbortAggressive) != 2 {
		t.Fatalf("Aborts(validation) = %d", m.Aborts(AbortValidation))
	}
	if m.Commits() != 5 {
		t.Fatalf("Commits = %d", m.Commits())
	}
}

func TestStringRendersShares(t *testing.T) {
	m := NewMachine(1)
	m.Block(0).Charge(RdBar, 75)
	m.Block(0).Charge(App, 25)
	if s := m.String(); s != "rdbar 75.0% app 25.0%" {
		t.Fatalf("unexpected rendering: %q", s)
	}
}

// The `-json` cell's stats and telemetry blocks, byte for byte as the two
// pre-merge stores (internal/stats and telemetry, each marshalled through
// its own Totals struct) rendered a fully populated cell at schema
// hastm-bench/9: member order, sorted map keys, the one htm_fallbacks value
// in both blocks.
func TestReportBlocksPinned(t *testing.T) {
	m := NewMachine(2)
	b := m.Block(1)
	for i := range b.cycles {
		b.cycles[i] = uint64(101 + i)
	}
	for i := range b.aborts {
		b.aborts[i] = uint64(201 + i)
	}
	for i, c := range []Counter{Commits, Retries, FilteredReads, UnfilteredReads, FastValidations,
		FullValidations, ReadsLogged, ReadLogsSkipped, FilteredWrites, UndoLogsSkipped,
		AggressiveCommits, CautiousCommits, HTMFallbacks, WaitCycles} {
		b.counts[c] = uint64(1 + i)
	}
	for i, c := range []Counter{ModeSwitchAggressive, ModeSwitchCautious, MarkCounterNonZero,
		AggressiveAttempts, CautiousAttempts, LockAcquires, HTMFallbacks, Escalations,
		IrrevocableEntries, IrrevocableCyclesHeld, WriteBufferHits, SnapshotReads,
		VersionHistoryReads, MVCCUpgrades, MVCCWriterRestarts, SnapshotAborts, ChaosInjected,
		WakeupTimeouts, ContainedFaults} {
		if c != HTMFallbacks {
			b.counts[c] = uint64(21 + i)
		}
	}
	for i, g := range []Gauge{ReadSetHWM, WriteSetHWM, UndoLogHWM, RetryDepthHWM, WatermarkPPM, WriteBufferHWM} {
		b.gauges[g] = uint64(41 + i)
	}
	const want = `{"stats":{"cycles":{"app":101,"commit":106,"htm":108,"lock":107,"rdbar":103,"tls":102,"validate":105,"wrbar":104},"commits":1,"aborts":{"aggressive-markctr":203,"explicit":206,"htm-capacity":204,"htm-conflict":205,"lock-conflict":202,"read-validation":201},"retries":2,"filtered_reads":3,"unfiltered_reads":4,"fast_validations":5,"full_validations":6,"reads_logged":7,"read_logs_skipped":8,"filtered_writes":9,"undo_logs_skipped":10,"aggressive_commits":11,"cautious_commits":12,"htm_fallbacks":13,"wait_cycles":14},"telemetry":{"counters":{"aggressive_attempts":24,"cautious_attempts":25,"chaos_injected":37,"contained_faults":39,"escalations":28,"htm_fallbacks":13,"irrevocable_cycles_held":30,"irrevocable_entries":29,"lock_acquires":26,"mark_counter_nonzero":23,"mode_switch_aggressive":21,"mode_switch_cautious":22,"mvcc_upgrades":34,"mvcc_writer_restarts":35,"snapshot_aborts":36,"snapshot_reads":32,"version_history_reads":33,"wakeup_timeouts":38,"write_buffer_hits":31},"gauges":{"read_set_hwm":41,"retry_depth_hwm":44,"undo_log_hwm":43,"watermark_ppm":45,"write_buffer_hwm":46,"write_set_hwm":42}}}`
	got, err := json.Marshal(m.Totals())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("populated store:\n got %s\nwant %s", got, want)
	}
	if got, _ := json.Marshal(Block{}); string(got) != `{"stats":{}}` {
		t.Errorf("empty store: got %s", got)
	}
	if got := (Block{}).Report().Telemetry; got != nil {
		t.Errorf("empty telemetry block must be absent, got %s", got)
	}
}

// Every registered name has a row in EXPERIMENTS.md's "Telemetry counters →
// paper terminology" section, and every name in a row's first column is
// registered.
func TestEveryNameIsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(doc), "\n## Telemetry counters → paper terminology\n")
	if !found {
		t.Fatal("EXPERIMENTS.md has no \"Telemetry counters → paper terminology\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	documented := map[string]bool{}
	tick := regexp.MustCompile("`([^`]+)`")
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		firstCol, _, _ := strings.Cut(line[2:], "|")
		for _, m := range tick.FindAllStringSubmatch(firstCol, -1) {
			documented[m[1]] = true
		}
	}
	var missing []string
	for _, name := range registeredNames() {
		if !documented[name] {
			missing = append(missing, name)
		}
		delete(documented, name)
	}
	if len(missing) > 0 {
		t.Errorf("registered names with no EXPERIMENTS.md row: %v", missing)
	}
	var stale []string
	for name := range documented {
		stale = append(stale, name)
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("EXPERIMENTS.md rows for names no longer registered: %v", stale)
	}
}
