package service

import (
	"fmt"
	"time"

	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

// AdmissionConfig tunes the service's admission control. Both mechanisms
// run per core on deterministic state, so the simulator backend's reports
// stay byte-identical across worker counts and schedulers.
type AdmissionConfig struct {
	// ShedAfterCycles sheds a request whose queueing delay (time between
	// its scheduled arrival and the core picking it up) exceeds this many
	// simulated cycles. Read only by the sim backend; 0 disables
	// queue-delay shedding there. The budget is split per backend because
	// the two clocks measure different things — a simulated cycle is not a
	// nanosecond, and one field serving both silently conflated the units.
	ShedAfterCycles uint64
	// ShedAfterNS is the native backend's queue-delay budget in host
	// nanoseconds. Read only by the native backend; 0 disables queue-delay
	// shedding there.
	ShedAfterNS uint64
	// HotThreshold declares a key hot when the core has observed this many
	// conflict aborts against it within the current decay window (hotWindow
	// requests). Writes to a hot key run through the irrevocable escalation
	// ladder (one at a time, no abort path). 0 disables hot-key detection.
	HotThreshold int
}

// hotWindow is the number of requests between decay steps of the hot-key
// scores (each halves every key's abort score).
const hotWindow = 64

// Config describes one service cell.
type Config struct {
	Bank BankConfig
	// Requests is the measured request count per core.
	Requests int
	// Warmup is the read-only warmup request count per core.
	Warmup int
	// MeanGap is the mean inter-arrival gap of one core's request stream:
	// simulated cycles on the sim backend, nanoseconds on native. The
	// cell-wide offered rate is cores/MeanGap. 0 means back-to-back
	// arrivals (saturation).
	MeanGap   uint64
	Seed      uint64
	Admission AdmissionConfig
	// Degrade arms the graceful-degradation ladder (see DegradeConfig);
	// the zero value disables it on both backends.
	Degrade DegradeConfig
}

// CellMetrics accumulates one core's service observations; the harness
// merges the per-core instances (sums and histogram merges commute).
type CellMetrics struct {
	Offered    uint64
	Committed  uint64
	Shed       uint64
	Serialized uint64
	Hist       Histogram

	// Degradation-ladder accounting. The class sheds are included in Shed
	// (offered == committed + shed always holds); engaged/recovered count
	// ladder transitions, and MaxDegradeLevel is the deepest level any
	// core reached.
	ShedScans        uint64
	ShedTransfers    uint64
	DegradeEngaged   uint64
	DegradeRecovered uint64
	MaxDegradeLevel  int
}

// Merge folds o into m.
func (m *CellMetrics) Merge(o *CellMetrics) {
	m.Offered += o.Offered
	m.Committed += o.Committed
	m.Shed += o.Shed
	m.Serialized += o.Serialized
	m.Hist.Merge(&o.Hist)
	m.ShedScans += o.ShedScans
	m.ShedTransfers += o.ShedTransfers
	m.DegradeEngaged += o.DegradeEngaged
	m.DegradeRecovered += o.DegradeRecovered
	if o.MaxDegradeLevel > m.MaxDegradeLevel {
		m.MaxDegradeLevel = o.MaxDegradeLevel
	}
}

// noteClassShed attributes a degradation-ladder shed to its class.
func (m *CellMetrics) noteClassShed(cause string) {
	switch cause {
	case "slo-scan":
		m.ShedScans++
	case "slo-transfer":
		m.ShedTransfers++
	}
}

// admission is one core's admission-control state: per-key conflict-abort
// scores with periodic halving, fed by the driver's attempt counts.
type admission struct {
	cfg        AdmissionConfig
	score      map[uint64]int
	sinceDecay int
}

func newAdmission(cfg AdmissionConfig) *admission {
	return &admission{cfg: cfg, score: make(map[uint64]int)}
}

// tick advances the decay clock by one request.
func (a *admission) tick() {
	if a.cfg.HotThreshold == 0 {
		return
	}
	a.sinceDecay++
	if a.sinceDecay >= hotWindow {
		a.sinceDecay = 0
		for k, s := range a.score {
			if s >>= 1; s == 0 {
				delete(a.score, k)
			} else {
				a.score[k] = s
			}
		}
	}
}

// noteAborts credits n conflict aborts against key.
func (a *admission) noteAborts(key uint64, n int) {
	if a.cfg.HotThreshold == 0 || n <= 0 {
		return
	}
	a.score[key] += n
}

// hot reports whether key has crossed the conflict-storm threshold.
func (a *admission) hot(key uint64) bool {
	return a.cfg.HotThreshold > 0 && a.score[key] >= a.cfg.HotThreshold
}

// drawGap draws one inter-arrival gap, uniform on an interval centred on
// mean so the mean offered rate is 1/mean with deterministic jitter: the
// draw is low + Intn(2·(mean/2)+1) with low = mean − mean/2, i.e. uniform
// over [mean−⌊mean/2⌋, mean+⌊mean/2⌋]. For even means this is exactly the
// historical [mean/2, 3·mean/2] draw (same Intn argument, same generator
// consumption, so existing even-gap figure cells are byte-identical); for
// odd means the symmetric interval keeps the true mean at mean instead of
// mean−0.5, and for mean == MaxUint64 the width 2·(mean/2)+1 cannot
// overflow to an Intn(0) division by zero the way mean+1 did.
func drawGap(r *workloads.Rand, mean uint64) uint64 {
	if mean == 0 {
		return 0
	}
	low := mean - mean/2
	return low + r.Intn(2*(mean/2)+1)
}

// serializer is the admission hook both backends implement: run the next
// transaction through the irrevocable ladder on its first attempt.
type serializer interface {
	AtomicSerialized(func(tm.Txn) error) error
}

// opSeed derives the retry-stable per-request seed, matching the scheme
// the closed-loop drivers use.
func opSeed(base uint64, i int) uint64 { return base ^ (uint64(i+1) * 0x9e3779b97f4a7c15) }

// seedBase derives one core's seed stream base from the cell seed.
func seedBase(seed uint64, id int) uint64 { return seed + uint64(id)*0x9e3779b9 + 1 }

// request is the one transaction body a core's run reuses. The loop assigns
// seed and writes before each Atomic, so a request costs no closure, no
// boxed attempt counter and no Rand.
type request struct {
	b        *Bank
	seed     uint64
	writes   bool
	attempts int // executions of the body for the current request
	rand     workloads.Rand
}

func (q *request) run(tx tm.Txn) error {
	q.attempts++
	q.rand.Seed(q.seed)
	return q.b.Op(tx, &q.rand, q.writes)
}

// clock is the seam between the two backends' request loops: a time axis
// (simulated cycles, or host nanoseconds since the stream began), a way to
// idle on it, and the trace sink. runCore is generic over it so neither
// implementation is boxed.
type clock interface {
	now() uint64
	idleUntil(t uint64)
	emit(i int, kind, cause string)
}

type simClock struct{ c *sim.Ctx }

func (s simClock) now() uint64 { return s.c.Clock() }
func (s simClock) idleUntil(t uint64) {
	if now := s.c.Clock(); now < t {
		s.c.Exec(t - now)
	}
}
func (s simClock) emit(i int, kind, cause string) {
	s.c.EmitTxn(telemetry.TxnEvent{Txn: uint64(i), Kind: kind, Cause: cause})
}

// hostClock has no trace sink: the native backend emits nothing.
type hostClock struct{ start time.Time }

func (h hostClock) now() uint64 { return uint64(time.Since(h.start)) }
func (h hostClock) idleUntil(t uint64) {
	if now := h.now(); now < t {
		time.Sleep(time.Duration(t - now))
	}
}
func (hostClock) emit(int, string, string) {}

// RunCoreSim drives one simulator core's open-loop request stream over the
// measured phase. Arrivals are scheduled on the core's own simulated
// clock: the i-th request arrives at start + Σ gaps, the core idles
// (Exec) until then if it is early, and a late core's backlog shows up as
// queueing delay inside the recorded sojourn — the open-loop property.
// Committed requests are appended to log (stamped with the commit clock)
// for sequential-oracle replay.
func RunCoreSim(c *sim.Ctx, th tm.Thread, b *Bank, cfg Config, cm *CellMetrics, log *workloads.OpLog) error {
	return runCore(simClock{c}, th, b, cfg, cfg.Admission.ShedAfterCycles, cfg.Degrade.SLOCycles, cm, log)
}

// RunCoreNative is RunCoreSim for the native TL2 backend: arrivals are
// paced on the host clock (nanosecond gaps from the same seeded stream),
// sojourns are host nanoseconds, and nothing is deterministic — native
// service numbers live on the same axis as every other host measurement.
// Commit stamps are TL2 write versions, so the log still oracle-replays.
func RunCoreNative(th tm.Thread, b *Bank, cfg Config, cm *CellMetrics, log *workloads.OpLog) error {
	return runCore(hostClock{time.Now()}, th, b, cfg, cfg.Admission.ShedAfterNS, cfg.Degrade.SLONS, cm, log)
}

// runCore is the one request loop: admission → shed → serialize → commit →
// record. shedAfter (0 = off) and slo are the queue-delay budget and the
// degradation ladder's SLO on clk's axis.
func runCore[C clock](clk C, th tm.Thread, b *Bank, cfg Config, shedAfter, slo uint64, cm *CellMetrics, log *workloads.OpLog) error {
	base := seedBase(cfg.Seed, th.ID())
	gaps := workloads.NewRand(base ^ 0xa5a5a5a55a5a5a5a)
	adm := newAdmission(cfg.Admission)
	deg := &degrade{slo: slo}
	defer deg.fold(cm)
	req := request{b: b}
	body := req.run
	sz, canSerialize := th.(serializer)
	arrival := clk.now()
	for i := 0; i < cfg.Requests; i++ {
		arrival += drawGap(gaps, cfg.MeanGap)
		clk.idleUntil(arrival)
		cm.Offered++
		adm.tick()
		req.seed, req.attempts = opSeed(base, i), 0
		key, class := b.classify(req.seed)
		req.writes = class == ClassTransfer
		// Why the request is shed, "" when it is admitted. Degraded, the
		// hot-key circuit is open: a hot write is shed instead of feeding
		// the serial path during an overload.
		cause := ""
		hot := req.writes && adm.hot(key)
		if shedAfter > 0 && clk.now()-arrival > shedAfter {
			cause = "queue-delay"
		} else if shed, why := deg.shouldShed(class); shed {
			cause = why
		} else if hot && deg.circuitOpen() {
			cause = "hot-key-open"
		}
		if cause != "" {
			cm.Shed++
			cm.noteClassShed(cause)
			clk.emit(i, telemetry.EvShed, cause)
			continue
		}
		var err error
		if hot && canSerialize {
			cm.Serialized++
			clk.emit(i, telemetry.EvSerialize, "hot-key")
			err = sz.AtomicSerialized(body)
		} else {
			err = th.Atomic(body)
		}
		if err != nil {
			return fmt.Errorf("service request %d: %w", i, err)
		}
		if req.attempts > 1 {
			adm.noteAborts(key, req.attempts-1)
		}
		cm.Committed++
		lat := clk.now() - arrival
		cm.Hist.Record(lat)
		if cause := deg.observe(lat); cause != "" {
			clk.emit(i, telemetry.EvDegrade, cause)
		}
		if log != nil {
			log.Add(workloads.OpRecord{Thread: th.ID(), Index: i, Seed: req.seed, Update: req.writes, Stamp: th.Stamp()})
		}
	}
	return nil
}

// RunWarmup drives read-only warmup requests closed-loop (no pacing, no
// logging): it exists to warm caches and probe paths before the barrier,
// leaving the measured phase's op log as the complete mutation history.
func RunWarmup(th tm.Thread, b *Bank, cfg Config) error {
	r := workloads.NewRand(seedBase(cfg.Seed+7777, th.ID()))
	body := func(tx tm.Txn) error { return b.WarmupOp(tx, r) }
	for i := 0; i < cfg.Warmup; i++ {
		if err := th.Atomic(body); err != nil {
			return fmt.Errorf("service warmup %d: %w", i, err)
		}
	}
	return nil
}
