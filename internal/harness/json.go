package harness

import (
	"encoding/json"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"hastm.dev/hastm/internal/telemetry"
)

// BenchSchema identifies the `hastm-bench -json` output format. Bump it on
// any incompatible change so perf-trajectory tooling can dispatch.
// hastm-bench/2: stats carries the full per-cell counter set (split
// abort-cause taxonomy, barrier/validation/log counters) and cells gain a
// telemetry block (mode transitions, mark-counter observations, high-water
// marks).
// hastm-bench/3: cells gain a scheduler block (granted ops, channel
// handoffs, handoffs avoided by the grant lease) and a host-throughput
// field (simulated cycles per host second), for tracking simulator speed
// alongside simulated results.
// hastm-bench/4: the telemetry block gains the escalation-ladder counters
// (escalations, irrevocable_entries, irrevocable_cycles_held) and cells
// gain an error field carrying the contained failure report (core panic,
// progress-watchdog trip) when a run fails instead of the process dying.
// hastm-bench/5: the document gains a backend field ("sim" or
// "native-tl2", the -backend flag) and every cell gains host_ns (the
// cell's host wall time in nanoseconds). Native-backend cells additionally
// carry backend and txns_per_sec (committed transactions per host second
// over the measured phase); their wall_cycles is 0 — host time is their
// only clock.
// hastm-bench/6: service cells (`hastm-bench -service`) gain a service
// block: latency_p50/p99/p999 (sojourn latency, simulated cycles on sim /
// host ns on native), offered_rate and goodput (requests per million
// cycles on sim / per second on native), offered/committed counts, and
// the admission-control shed and serialized counts.
// hastm-bench/7: the deferred-update scheme family lands ("lazy" and
// "mvcc" scheme labels appear in cells, including the ext-lazy sweep and
// service cells) and the telemetry block gains their counters
// (write_buffer_hits, snapshot_reads, version_history_reads, mvcc_upgrades,
// mvcc_writer_restarts, snapshot_aborts) and the write_buffer_hwm gauge.
// hastm-bench/8: the machine becomes socket-aware. Options gains Topology
// (SxC machine shape), Mapping (compact/scatter thread placement) and
// Placement (interleave/first-touch page homing); cells that ran on a
// multi-socket machine gain a numa block: the topology/mapping/placement
// they ran under plus per-socket traffic counters (cross_socket_misses,
// remote_dirty_fetches, directory_invalidations) and their totals. Flat
// cells carry no numa block and are unchanged from /7 cell-for-cell.
// hastm-bench/9: the native chaos plane and the service degradation ladder
// land. Native cells run under `-chaos` gain a chaos block (spec, the
// deterministic planned-schedule hash as a 16-hex-digit string, per-kind
// planned/fired injection counts, and the watchdog violation if one
// tripped); the telemetry block gains chaos_injected, wakeup_timeouts and
// contained_faults; the service block gains the graceful-degradation
// fields (shed_scans, shed_transfers, degrade_engaged, degrade_recovered,
// degrade_level_max). Cells without chaos armed carry no chaos block. (The
// options dump lost its always-zero TraceMax key when the text trace folded
// into TxnTraceMax; no consumer-visible field moved, so the version stands.)
// hastm-bench/10: the multi-socket machine is gone. Options loses Topology,
// Mapping and Placement, and no cell carries a numa block; every other
// field is unchanged from /9.
const BenchSchema = "hastm-bench/10"

// SchedRecord is the host-side scheduler-efficiency block of a cell: how
// many architectural ops the simulator granted and how many scheduler
// channel round-trips they cost. handoffs_avoided is the lease's win;
// under -sched reference it is always 0.
type SchedRecord struct {
	Grants          uint64 `json:"grants"`
	Leases          uint64 `json:"leases"`
	HandoffsAvoided uint64 `json:"handoffs_avoided"`
}

// CellRecord is the per-cell line of a benchmark run: the simulated result
// plus the host-side cost of producing it. Simulated fields are
// deterministic for a given (options, seed); host fields are not.
type CellRecord struct {
	Figure     string  `json:"figure"`
	Label      string  `json:"label"`
	WallCycles uint64  `json:"wall_cycles"`
	HostMS     float64 `json:"host_ms"`
	// HostNS is the cell's host wall time in nanoseconds (the precise form
	// of HostMS, for tooling that must not lose sub-ms cells).
	HostNS int64 `json:"host_ns"`
	// Backend marks cells produced by a non-simulator backend
	// ("native-tl2"); absent on simulator cells.
	Backend string `json:"backend,omitempty"`
	// TxnsPerSec is the native-backend commit rate over the measured
	// phase; absent on simulator cells (host-throughput there is
	// CyclesPerHostSec).
	TxnsPerSec float64 `json:"txns_per_sec,omitempty"`
	// CyclesPerHostSec is the cell's simulation throughput: simulated
	// cycles advanced per host second. Host-dependent, like HostMS.
	CyclesPerHostSec float64 `json:"cycles_per_host_sec"`
	// The stats and telemetry blocks of the cell's metrics store.
	telemetry.Report
	Sched *SchedRecord `json:"sched,omitempty"`
	// Service is the open-loop service block (latency percentiles, offered
	// rate, goodput, shed counts); only on `-service` cells.
	Service *ServiceRecord `json:"service,omitempty"`
	// Chaos is the native fault-plane block; absent unless the cell ran on
	// the native backend with -chaos armed.
	Chaos *ChaosRecord `json:"chaos,omitempty"`
	// Error is the cell's contained failure report ("" = the run
	// succeeded): a recovered core panic or a progress-watchdog violation.
	Error string `json:"error,omitempty"`
}

// BenchJSON is the full `hastm-bench -json` document: run metadata, every
// figure's assembled tables, and per-cell host timings for perf-trajectory
// tracking (BENCH_*.json files).
type BenchJSON struct {
	Schema      string    `json:"schema"`
	GeneratedAt time.Time `json:"generated_at"`
	GitRev      string    `json:"git_rev,omitempty"`
	GoVersion   string    `json:"go_version"`
	NumCPU      int       `json:"num_cpu"`
	// Backend is the run's backend: "sim" (cycle-ordered simulator) or
	// "native-tl2" (host goroutines on real memory).
	Backend     string       `json:"backend"`
	Workers     int          `json:"workers"`
	Seed        uint64       `json:"seed"`
	Options     Options      `json:"options"`
	HostSeconds float64      `json:"host_seconds"`
	Figures     []*Report    `json:"figures"`
	Cells       []CellRecord `json:"cells"`
}

// NewBenchJSON assembles the document from executed plans and the reports
// Execute returned for them; a verdict plan's nil report is left out.
func NewBenchJSON(o Options, workers int, plans []*Plan, reports []*Report, elapsed time.Duration) *BenchJSON {
	b := &BenchJSON{
		Schema:      BenchSchema,
		GeneratedAt: time.Now().UTC(),
		GitRev:      gitRevision(),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Backend:     "sim",
		Workers:     workers,
		Seed:        o.Seed,
		Options:     o,
		HostSeconds: elapsed.Seconds(),
	}
	for _, r := range reports {
		if r != nil {
			b.Figures = append(b.Figures, r)
		}
	}
	for _, p := range plans {
		for _, c := range p.Cells {
			met := c.Metrics()
			rec := CellRecord{
				Figure:     c.Figure,
				Label:      c.Label,
				WallCycles: met.WallCycles,
				HostMS:     float64(c.HostNS) / 1e6,
				HostNS:     c.HostNS,
				Report:     met.Stats.Totals().Report(),
				Service:    met.Service,
				Chaos:      met.Chaos,
				Error:      c.Err,
			}
			if met.Backend != "" {
				b.Backend = met.Backend
				rec.Backend = met.Backend
				rec.TxnsPerSec = met.TxnsPerSec()
			} else if c.HostNS > 0 {
				rec.CyclesPerHostSec = float64(met.WallCycles) / (float64(c.HostNS) / 1e9)
			}
			if sc := met.Sched; sc.Grants > 0 {
				rec.Sched = &SchedRecord{
					Grants:          sc.Grants,
					Leases:          sc.Leases,
					HandoffsAvoided: sc.HandoffsAvoided(),
				}
			}
			b.Cells = append(b.Cells, rec)
		}
	}
	return b
}

// Write emits the document as indented JSON.
func (b *BenchJSON) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// gitRevision returns the VCS revision baked into the binary, or "" when
// the build carries no VCS stamp (e.g. `go test`).
func gitRevision() string {
	info, _ := debug.ReadBuildInfo()
	return vcsRevision(info)
}

// vcsRevision is gitRevision over a given build: the revision, marked
// "+dirty" when the tree had local modifications.
func vcsRevision(info *debug.BuildInfo) string {
	if info == nil {
		return ""
	}
	var rev, modified string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev != "" && modified == "true" {
		rev += "+dirty"
	}
	return rev
}
