package native

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"hastm.dev/hastm/internal/spec"
)

// The native chaos plane mirrors internal/faults for the host backend:
// seeded per-goroutine splitmix64 streams plan injections — stalls,
// preemptions, spurious aborts, delayed wakeups — at named commit-protocol
// points. Planning is a pure function of (seed, thread id, per-thread
// top-level transaction index), drawn once per transaction at begin, so
// the planned schedule and its hash are byte-identical across runs and
// under -race even though the host scheduler is free to interleave the
// injections themselves differently. Whether a planned injection actually
// fires depends on the path the attempt takes (a read-only commit never
// reaches the write-back point), so planned and fired are counted
// separately; determinism claims attach to the plan.

// chaosPoint names the commit-protocol points where injections land.
type chaosPoint uint8

const (
	// pointPostLock is immediately after the write set's stripes are
	// acquired, before the commit takes its write version.
	pointPostLock chaosPoint = iota
	// pointPreValidate is after wv is taken, before read-set revalidation.
	pointPreValidate
	// pointPreWriteBack is after validation, before the buffered values
	// are published — the widest window in which the stripes are locked.
	pointPreWriteBack
	// pointWait is inside the retry path, just before the transaction
	// subscribes to commit notifications in waitForChange.
	pointWait
	// pointIrrevocable is inside the serial section, after the exclusive
	// lock is taken and before the body runs.
	pointIrrevocable
	numChaosPoints
)

var chaosPointNames = [numChaosPoints]string{
	pointPostLock:     "post-lock",
	pointPreValidate:  "pre-validate",
	pointPreWriteBack: "pre-write-back",
	pointWait:         "wait",
	pointIrrevocable:  "irrevocable",
}

func (p chaosPoint) String() string {
	if int(p) < len(chaosPointNames) {
		return chaosPointNames[p]
	}
	return fmt.Sprintf("chaosPoint(%d)", int(p))
}

// chaosKind is one injectable fault kind.
type chaosKind uint8

const (
	kindStall     chaosKind = iota // sleep at a drawn point with locks held
	kindPreempt                    // Gosched burst: simulate an OS preemption
	kindAbort                      // spurious conflict abort mid-commit
	kindWakeDelay                  // delay a retry waiter's wakeup processing
	numChaosKinds
)

var chaosKindNames = [numChaosKinds]string{
	kindStall:     "stall",
	kindPreempt:   "preempt",
	kindAbort:     "abort",
	kindWakeDelay: "wakedelay",
}

func (k chaosKind) String() string {
	if int(k) < len(chaosKindNames) {
		return chaosKindNames[k]
	}
	return fmt.Sprintf("chaosKind(%d)", int(k))
}

// ChaosSpec configures the native fault plane. Each kind's field is a
// mean injection period in top-level transactions (0 disables the kind);
// the exact cadence is jittered per thread from the seeded stream, like
// the simulator plane's per-core schedules.
type ChaosSpec struct {
	Stall       uint64 // stall every ~N transactions
	StallNS     uint64 // stall duration; 0 means 50µs
	Preempt     uint64 // Gosched burst every ~N transactions
	Abort       uint64 // spurious commit abort every ~N transactions
	WakeDelay   uint64 // delayed retry wakeup every ~N transactions
	WakeDelayNS uint64 // wakeup delay duration; 0 means 20µs
	Seed        uint64 // stream seed; 0 means 1
}

// Enabled reports whether any kind is armed.
func (s ChaosSpec) Enabled() bool {
	return s.Stall > 0 || s.Preempt > 0 || s.Abort > 0 || s.WakeDelay > 0
}

// chaosKeys are the -chaos grammar's keys, in ChaosSpec field order.
var chaosKeys = []string{"stall", "stallns", "preempt", "abort", "wakedelay", "wakedelayns", "seed"}

func (s *ChaosSpec) fields() []*uint64 {
	return []*uint64{&s.Stall, &s.StallNS, &s.Preempt, &s.Abort, &s.WakeDelay, &s.WakeDelayNS, &s.Seed}
}

// String renders the spec in the canonical form ParseChaosSpec accepts:
// armed kinds only, a duration only beside its rate; "off" when nothing is
// armed.
func (s ChaosSpec) String() string {
	if !s.Enabled() {
		return "off"
	}
	if s.Stall == 0 {
		s.StallNS = 0
	}
	if s.WakeDelay == 0 {
		s.WakeDelayNS = 0
	}
	return spec.Format(chaosKeys, s.fields(), true)
}

// ParseChaosSpec parses the -chaos flag in the internal/spec grammar:
// stall, stallns, preempt, abort, wakedelay, wakedelayns, seed. "" and
// "off" yield a disabled spec.
func ParseChaosSpec(text string) (ChaosSpec, error) {
	var s ChaosSpec
	if text = strings.TrimSpace(text); text == "" || text == "off" {
		return s, nil
	}
	if err := spec.Parse(text, chaosKeys, s.fields()); err != nil {
		return ChaosSpec{}, fmt.Errorf("chaos: %w", err)
	}
	return s, nil
}

// chaosMix is the splitmix64 finalizer: seeds per-thread streams so
// adjacent (seed, thread) pairs decorrelate, same construction as the
// simulator plane.
func chaosMix(seed, id uint64) uint64 {
	z := seed + id*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chaosPlan is one injection armed for the current transaction.
type chaosPlan struct {
	active bool
	point  chaosPoint
}

// chaosThread is one goroutine's chaos stream and schedule. All random
// draws happen in beginTxn, in a fixed order, so the plan depends only on
// the stream state — never on host timing.
type chaosThread struct {
	spec ChaosSpec
	rng  uint64 // xorshift64 state
	txns uint64 // top-level transactions begun
	due  [numChaosKinds]uint64
	pend [numChaosKinds]chaosPlan

	planned [numChaosKinds]uint64
	fired   [numChaosKinds]uint64
	hash    uint64 // FNV-1a over the planned (txn, kind, point) schedule
	sched   int    // planned schedule length
}

const fnvOffset = 0xcbf29ce484222325

func newChaosThread(spec ChaosSpec, id int) *chaosThread {
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	if spec.StallNS == 0 {
		spec.StallNS = 50_000
	}
	if spec.WakeDelayNS == 0 {
		spec.WakeDelayNS = 20_000
	}
	c := &chaosThread{spec: spec, hash: fnvOffset}
	c.rng = chaosMix(seed, uint64(id))
	if c.rng == 0 {
		c.rng = 0x2545f4914f6cdd1d
	}
	for k := chaosKind(0); k < numChaosKinds; k++ {
		if p := c.period(k); p > 0 {
			c.due[k] = c.next(p)
		}
	}
	return c
}

func (c *chaosThread) period(k chaosKind) uint64 {
	switch k {
	case kindStall:
		return c.spec.Stall
	case kindPreempt:
		return c.spec.Preempt
	case kindAbort:
		return c.spec.Abort
	default:
		return c.spec.WakeDelay
	}
}

func (c *chaosThread) rand() uint64 {
	x := c.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rng = x
	return x
}

// next draws the transaction index of the kind's next injection: the mean
// period with ±period/2 jitter, matching the simulator plane's cadence.
func (c *chaosThread) next(period uint64) uint64 {
	return c.txns + period/2 + c.rand()%period + 1
}

// beginTxn advances the stream for one top-level transaction, arming any
// injections that come due and folding them into the schedule hash.
func (c *chaosThread) beginTxn() {
	for k := range c.pend {
		c.pend[k].active = false // unreached plans from the previous txn lapse
	}
	c.txns++
	for k := chaosKind(0); k < numChaosKinds; k++ {
		period := c.period(k)
		if period == 0 || c.txns < c.due[k] {
			continue
		}
		c.due[k] = c.next(period)
		pt := c.drawPoint(k)
		c.pend[k] = chaosPlan{active: true, point: pt}
		c.planned[k]++
		c.sched++
		c.fold(c.txns)
		c.fold(uint64(k))
		c.fold(uint64(pt))
	}
}

// drawPoint picks where the injection lands. Aborts only make sense while
// the commit holds stripes; delayed wakeups only on the wait path.
func (c *chaosThread) drawPoint(k chaosKind) chaosPoint {
	switch k {
	case kindAbort:
		return chaosPoint(c.rand() % 3) // post-lock / pre-validate / pre-write-back
	case kindWakeDelay:
		return pointWait
	default:
		return chaosPoint(c.rand() % uint64(numChaosPoints))
	}
}

func (c *chaosThread) fold(w uint64) {
	for i := 0; i < 8; i++ {
		c.hash ^= (w >> (8 * i)) & 0xff
		c.hash *= 0x100000001b3
	}
}

// at fires every pending injection planned for point p. Returns how many
// fired and whether a spurious abort was injected (the caller must abort
// the commit).
func (c *chaosThread) at(p chaosPoint) (n int, abort bool) {
	for k := chaosKind(0); k < numChaosKinds; k++ {
		pl := &c.pend[k]
		if !pl.active || pl.point != p {
			continue
		}
		pl.active = false
		c.fired[k]++
		n++
		switch k {
		case kindStall:
			time.Sleep(time.Duration(c.spec.StallNS))
		case kindPreempt:
			for i := 0; i < 8; i++ {
				runtime.Gosched()
			}
		case kindAbort:
			abort = true
		case kindWakeDelay:
			time.Sleep(time.Duration(c.spec.WakeDelayNS))
		}
	}
	return n, abort
}

// wakeDelay consumes a pending delayed-wakeup injection, if any: called by
// waitForChange when a commit notification arrives, before the watch set
// is re-checked. Returns true when a delay fired.
func (c *chaosThread) wakeDelay() bool {
	pl := &c.pend[kindWakeDelay]
	if !pl.active {
		return false
	}
	pl.active = false
	c.fired[kindWakeDelay]++
	time.Sleep(time.Duration(c.spec.WakeDelayNS))
	return true
}

// ChaosReport aggregates the plane's plan and outcome across threads.
type ChaosReport struct {
	Spec         string
	ScheduleHash uint64 // byte-identical across runs of one configuration
	ScheduleLen  int
	Planned      map[string]uint64
	Fired        map[string]uint64
}

// ChaosReport merges the per-thread schedules, in thread-id order, into
// one report. Returns nil when the plane is disabled. Call only after the
// run's goroutines have finished.
func (s *System) ChaosReport() *ChaosReport {
	if !s.cfg.Chaos.Enabled() {
		return nil
	}
	rep := &ChaosReport{
		Spec:         s.cfg.Chaos.String(),
		ScheduleHash: fnvOffset,
		Planned:      make(map[string]uint64),
		Fired:        make(map[string]uint64),
	}
	var ids []int
	for id, t := range s.threads {
		if t != nil && t.chaos != nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	fold := func(w uint64) {
		for i := 0; i < 8; i++ {
			rep.ScheduleHash ^= (w >> (8 * i)) & 0xff
			rep.ScheduleHash *= 0x100000001b3
		}
	}
	for _, id := range ids {
		c := s.threads[id].chaos
		fold(uint64(id))
		fold(uint64(c.sched))
		fold(c.hash)
		rep.ScheduleLen += c.sched
		for k := chaosKind(0); k < numChaosKinds; k++ {
			rep.Planned[k.String()] += c.planned[k]
			rep.Fired[k.String()] += c.fired[k]
		}
	}
	return rep
}
