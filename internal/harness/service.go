package harness

import (
	"fmt"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/service"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

// The service runner drives the open-loop transactional bank service
// (internal/service) on both backends. Simulator cells pace arrivals in
// simulated cycles and report latency percentiles in cycles — fully
// deterministic, byte-identical across -j and schedulers. Native cells
// pace arrivals on the host clock and report nanoseconds. Every cell's
// committed-op log is replayed through the sequential oracle before the
// cell is allowed to report.

// ServiceCores is the fixed core/goroutine count of the service figure:
// the service models one fixed machine under varying load, not a scaling
// sweep.
const ServiceCores = 8

// ServiceRecord is the per-cell service block of the JSON schema: offered
// load, goodput and the sojourn-latency percentiles. Units are simulated
// cycles (and requests per million cycles) on the sim backend, host
// nanoseconds (and requests per second) on native.
type ServiceRecord struct {
	// OfferedRate is the measured arrival rate: requests per million
	// cycles (sim) or per second (native).
	OfferedRate float64 `json:"offered_rate"`
	// Goodput is the committed-transaction rate on the same axis.
	Goodput float64 `json:"goodput"`
	// Latency percentiles of committed requests' sojourn time (queueing
	// delay + execution), in cycles (sim) or nanoseconds (native).
	LatencyP50  uint64 `json:"latency_p50"`
	LatencyP99  uint64 `json:"latency_p99"`
	LatencyP999 uint64 `json:"latency_p999"`
	Offered     uint64 `json:"offered"`
	Committed   uint64 `json:"committed"`
	// Shed counts requests rejected by admission control (queue-delay
	// budget, degradation ladder or open hot-key circuit). Not omitted
	// when zero: the CI schema asserts grep for it.
	Shed uint64 `json:"shed"`
	// Serialized counts requests routed through the irrevocable ladder by
	// the hot-key policy.
	Serialized uint64 `json:"serialized"`
	// Degradation-ladder accounting: class sheds (included in Shed),
	// ladder transitions, and the deepest level any core engaged.
	ShedScans        uint64 `json:"shed_scans"`
	ShedTransfers    uint64 `json:"shed_transfers"`
	DegradeEngaged   uint64 `json:"degrade_engaged"`
	DegradeRecovered uint64 `json:"degrade_recovered"`
	DegradeLevelMax  int    `json:"degrade_level_max"`
}

// DefaultAdmission is the service figure's admission-control setting:
// shed requests stuck in queue past the delay budget, serialize writes to
// keys showing a conflict storm. The two queue-delay budgets are per
// backend (simulated cycles vs host nanoseconds) and deliberately carry
// the same number each: 20k cycles and 20µs are both "a few transactions
// deep" on their respective axes.
func DefaultAdmission() service.AdmissionConfig {
	return service.AdmissionConfig{
		ShedAfterCycles: 20_000, // simulated cycles of queueing delay (sim backend)
		ShedAfterNS:     20_000, // host nanoseconds of queueing delay (native backend)
		HotThreshold:    6,
	}
}

// DefaultDegrade is the service figure's graceful-degradation setting.
// The sim budget equals the CI SLO gate's p999 bound at the moderate-load
// operating point, so a healthy cell never engages the ladder and the
// overloaded cells shed scans before transfers; the native budget is the
// same posture on the host-nanosecond axis.
func DefaultDegrade() service.DegradeConfig {
	return service.DegradeConfig{
		SLOCycles: 16_384,    // p99 sojourn budget, simulated cycles
		SLONS:     1_000_000, // p99 sojourn budget, host ns (1ms)
	}
}

// ServiceConfig assembles one cell's service configuration from the
// harness options: accounts sized from HashSlots at 4× headroom, the
// total request count split across cores like every simulator cell.
func ServiceConfig(o Options, cores int, meanGap uint64, zipfS float64, adm service.AdmissionConfig) service.Config {
	// A total that cannot be split leaves Requests 0, which the service
	// runners reject by name.
	per, _ := splitOps(o.Ops, cores)
	return service.Config{
		Bank: service.BankConfig{
			Keys:  max(o.HashSlots/4, 16),
			Slots: o.HashSlots,
			ZipfS: zipfS,
		},
		Requests:  per,
		Warmup:    o.warmupPerThread(cores),
		MeanGap:   meanGap,
		Seed:      o.Seed,
		Admission: adm,
		Degrade:   DefaultDegrade(),
	}
}

// serviceSubject is what both service runners share: the populated bank,
// the per-thread observations and the committed-op log every cell replays.
type serviceSubject struct {
	bank    *service.Bank
	perCore []service.CellMetrics
	log     *workloads.OpLog
}

func newServiceSubject(m *mem.Memory, threads int, sc service.Config) (serviceSubject, error) {
	if sc.Requests < 1 {
		return serviceSubject{}, fmt.Errorf("service config has no requests per thread: ops cannot be split over %d threads", threads)
	}
	s := serviceSubject{
		bank:    service.NewBank(m, sc.Bank),
		perCore: make([]service.CellMetrics, threads),
		log:     workloads.NewOpLogCap(sc.Requests * threads), // every request may commit
	}
	s.bank.Populate(m, workloads.NewRand(sc.Seed))
	return s, nil
}

// record folds the per-thread observations into the JSON block. rate turns
// a count into the backend's rate unit: per million wall cycles on the
// simulator, per host second on native.
func (s serviceSubject) record(rate func(count uint64) float64) *ServiceRecord {
	cm := &service.CellMetrics{}
	for i := range s.perCore {
		cm.Merge(&s.perCore[i])
	}
	return &ServiceRecord{
		OfferedRate:      rate(cm.Offered),
		Goodput:          rate(cm.Committed),
		LatencyP50:       cm.Hist.Percentile(0.50),
		LatencyP99:       cm.Hist.Percentile(0.99),
		LatencyP999:      cm.Hist.Percentile(0.999),
		Offered:          cm.Offered,
		Committed:        cm.Committed,
		Shed:             cm.Shed,
		Serialized:       cm.Serialized,
		ShedScans:        cm.ShedScans,
		ShedTransfers:    cm.ShedTransfers,
		DegradeEngaged:   cm.DegradeEngaged,
		DegradeRecovered: cm.DegradeRecovered,
		DegradeLevelMax:  cm.MaxDegradeLevel,
	}
}

// oracle is the service cells' check: the committed-op log applied serially
// in stamp order to a freshly populated bank must reproduce the run's exact
// final state (TL2 write versions are valid stamps, so this holds on the
// native backend too).
func (s serviceSubject) oracle(m *mem.Memory, sc service.Config) error {
	_, err := workloads.VerifyOracle(s.bank, m, func(m2 *mem.Memory) workloads.DataStructure {
		return service.NewBank(m2, sc.Bank)
	}, sc.Seed, s.log)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	return nil
}

// RunOneServiceScheme runs one simulator service cell: populate the bank,
// run the read-only warmup, then drive every core's open-loop arrival
// stream under the named scheme with the escalation ladder armed (the
// admission controller's serialize action needs it). The committed-op log
// is replayed through the sequential oracle before the metrics are
// returned.
func RunOneServiceScheme(scheme string, cores int, sc service.Config, o Options) (RunMetrics, error) {
	c, err := newSimCell(simSpec{scheme: scheme, threads: cores, o: o.armed()})
	if err != nil {
		return RunMetrics{}, err
	}
	s, err := newServiceSubject(c.m.Mem, cores, sc)
	if err != nil {
		return RunMetrics{}, err
	}
	metrics, res := c.run(warmBarrier,
		func(_ *sim.Ctx, th tm.Thread, _ int) error { return service.RunWarmup(th, s.bank, sc) },
		func(ctx *sim.Ctx, th tm.Thread, id int) error {
			return service.RunCoreSim(ctx, th, s.bank, sc, &s.perCore[id], s.log)
		})
	metrics.Service = s.record(func(n uint64) float64 {
		if metrics.WallCycles == 0 {
			return 0
		}
		return float64(n) * 1e6 / float64(metrics.WallCycles)
	})
	if err := res.verdict(func() error { return s.oracle(c.m.Mem, sc) }); err != nil {
		return metrics, fmt.Errorf("service: %w", err)
	}
	return metrics, nil
}

// RunOneServiceNative runs one native-backend service cell: the same
// bank, admission control and oracle replay, arrivals paced on the host
// clock, latency in host nanoseconds.
func RunOneServiceNative(threads int, sc service.Config, o Options) (RunMetrics, error) {
	c, err := newNativeCell(nativeSpec{threads: threads, o: o.armed()})
	if err != nil {
		return RunMetrics{}, err
	}
	s, err := newServiceSubject(c.mem, threads, sc)
	if err != nil {
		return RunMetrics{}, err
	}
	metrics, res := c.run(
		func(th tm.Thread, _ int) error { return service.RunWarmup(th, s.bank, sc) },
		func(th tm.Thread, id int) error {
			return service.RunCoreNative(th, s.bank, sc, &s.perCore[id], s.log)
		})
	metrics.Service = s.record(func(n uint64) float64 {
		if metrics.HostNS <= 0 {
			return 0
		}
		return float64(n) / (float64(metrics.HostNS) / 1e9)
	})
	if err := res.verdict(func() error { return s.oracle(c.mem, sc) }); err != nil {
		return metrics, fmt.Errorf("native service: %w", err)
	}
	return metrics, nil
}

// ServiceLoadGaps is the latency-vs-load sweep: mean per-core
// inter-arrival gaps from light load down past saturation (a service
// transaction costs a few hundred cycles, so the smallest gaps overload
// the cores and expose queueing delay and shedding), in simulated cycles
// (sim backend) — the native sweep reuses them as nanoseconds.
var ServiceLoadGaps = []uint64{16384, 4096, 1024, 256, 64}

// ServiceSkewS is the skew sweep's Zipf exponents (at a fixed moderate
// load).
var ServiceSkewS = []float64{0, 0.5, 0.9, 1.2, 1.5}

// ServiceSkewGap is the fixed mean gap of the skew sweep: busy enough
// that key skew translates into real conflict pressure.
const ServiceSkewGap uint64 = 1024

// ServiceSchemes is the service figure's scheme-comparison axis: the eager
// STM default against the deferred-update family, all at the skew sweep's
// moderate-load operating point. Every scheme cell oracle-replays its
// committed-op log, so this doubles as end-to-end service conformance for
// the lazy and mvcc commit protocols.
func ServiceSchemes() []string { return []string{SchemeSTM, SchemeLazy, SchemeMVCC} }

// serviceTables assembles the two-table group (latency percentiles;
// offered/goodput/shed counts) for one sweep. A failed cell left no service
// block and renders as zeros, like a failed cell of any figure.
func serviceTables(name, colHeader, latUnit, rateUnit string, cols []string, cells []*Cell) []Table {
	tables := []Table{
		{Name: name + "-latency", ColHeader: colHeader, Unit: latUnit, Cols: cols},
		{Name: name + "-throughput", ColHeader: colHeader, Unit: rateUnit, Cols: cols},
	}
	for _, r := range []struct {
		table int
		name  string
		get   func(*ServiceRecord) float64
	}{
		{0, "p50", func(s *ServiceRecord) float64 { return float64(s.LatencyP50) }},
		{0, "p99", func(s *ServiceRecord) float64 { return float64(s.LatencyP99) }},
		{0, "p999", func(s *ServiceRecord) float64 { return float64(s.LatencyP999) }},
		{1, "offered", func(s *ServiceRecord) float64 { return s.OfferedRate }},
		{1, "goodput", func(s *ServiceRecord) float64 { return s.Goodput }},
		{1, "shed", func(s *ServiceRecord) float64 { return float64(s.Shed) }},
		{1, "serialized", func(s *ServiceRecord) float64 { return float64(s.Serialized) }},
	} {
		row := Row{Name: r.name}
		for _, c := range cells {
			svc := c.Metrics().Service
			if svc == nil {
				svc = &ServiceRecord{}
			}
			row.Cells = append(row.Cells, r.get(svc))
		}
		tables[r.table].Rows = append(tables[r.table].Rows, row)
	}
	return tables
}

// serviceSweep declares one cell of p per value of a sweep axis and returns
// the assembly of the sweep's two tables.
func serviceSweep[T any](p *Plan, axis, colHeader, prefix, latUnit, rateUnit string, vals []T, run func(T) (RunMetrics, error)) func() []Table {
	var cols []string
	var cells []*Cell
	for _, v := range vals {
		col := fmt.Sprint(v)
		cols = append(cols, col)
		cells = append(cells, p.cell(fmt.Sprintf("%s/%s/%s%s", p.ID, axis, prefix, col), func() RunMetrics {
			return must(run(v))
		}))
	}
	return func() []Table { return serviceTables(axis, colHeader, latUnit, rateUnit, cols, cells) }
}

// serviceLoadSkew is the fixed moderate key skew of the load sweep.
const serviceLoadSkew = 0.9

// servicePlan builds a service figure on ServiceCores threads with default
// admission control: a latency-vs-load sweep (fixed moderate skew), a skew
// sweep (fixed moderate load) and, for the schemes named, their comparison at
// that operating point. rep carries the figure's id, title and notes.
func servicePlan(rep Report, latUnit, rateUnit string, schemes []string, o Options, run func(scheme string, sc service.Config) (RunMetrics, error)) *Plan {
	p := newPlan(rep.ID)
	cell := func(scheme string, gap uint64, skew float64) (RunMetrics, error) {
		return run(scheme, ServiceConfig(o, ServiceCores, gap, skew, DefaultAdmission()))
	}
	sweeps := []func() []Table{
		serviceSweep(p, "load", "mean gap ("+latUnit+")", "gap", latUnit, rateUnit, ServiceLoadGaps, func(gap uint64) (RunMetrics, error) {
			return cell(SchemeSTM, gap, serviceLoadSkew)
		}),
		serviceSweep(p, "skew", "zipf s", "s", latUnit, rateUnit, ServiceSkewS, func(s float64) (RunMetrics, error) {
			return cell(SchemeSTM, ServiceSkewGap, s)
		}),
	}
	if len(schemes) > 0 {
		sweeps = append(sweeps, serviceSweep(p, "scheme", "scheme", "", latUnit, rateUnit, schemes, func(scheme string) (RunMetrics, error) {
			return cell(scheme, ServiceSkewGap, serviceLoadSkew)
		}))
	}
	p.Assemble = func() *Report {
		out := rep
		for _, tables := range sweeps {
			out.Tables = append(out.Tables, tables()...)
		}
		return &out
	}
	return p
}

// ServicePlan is the simulator service figure. All cell values derive from
// deterministic simulated state, so the figure is byte-identical across
// worker counts and schedulers.
func ServicePlan(o Options) *Plan {
	return servicePlan(Report{
		ID:    "service",
		Title: "Open-loop transactional service: latency vs load and key skew",
		Notes: "sojourn latency percentiles (queueing + execution) in simulated cycles; offered/goodput in requests per million cycles; shed/serialized are admission-control counts; the scheme tables compare eager stm against the deferred-update family at the moderate-load operating point",
	}, "cycles", "req/Mcycle", ServiceSchemes(), o, func(scheme string, sc service.Config) (RunMetrics, error) {
		return RunOneServiceScheme(scheme, ServiceCores, sc, o)
	})
}

// ServiceNativePlan is the native-backend service figure: the load and skew
// sweeps with arrivals paced in host nanoseconds. Host-dependent, like every
// native number.
func ServiceNativePlan(o Options) *Plan {
	return servicePlan(Report{
		ID:    "service-native",
		Title: "Open-loop transactional service on the native TL2 backend",
		Notes: "sojourn latency percentiles in host nanoseconds; offered/goodput in requests per second; host-dependent, not comparable to simulated figures",
	}, "ns", "req/s", nil, o, func(_ string, sc service.Config) (RunMetrics, error) {
		return RunOneServiceNative(ServiceCores, sc, o)
	})
}
