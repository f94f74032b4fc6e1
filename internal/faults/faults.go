// Package faults is the deterministic fault-injection plane: a
// sim.FaultHook that perturbs a running machine at seeded, reproducible
// points of the global operation order. It drives exactly the hazards the
// paper's §5 virtualization story and §7.4 interference analysis care
// about, on demand instead of by accident:
//
//   - suspend: a ring transition (context switch / interrupt / GC pause)
//     on the granted core — marks discarded, mark counters bumped,
//     transition latency paid, transaction NOT aborted;
//   - evict: a forced L1 capacity eviction of a recently accessed line
//     (mark bits die, HTM read/write sets lose the line);
//   - snoop: an L2 back-invalidation of a recently accessed line, kicking
//     it out of every core's L1 at once;
//   - htmabort: a spurious abort of the granted core's in-flight hardware
//     transaction (registered by the HTM scheme; a no-op elsewhere).
//
// Determinism: the hook runs on the granted core's goroutine while it
// holds the grant, and the simulator's grant order is itself
// deterministic, so a given (Spec, machine, programs) triple produces a
// byte-identical fault schedule on every run and under any host
// parallelism. Each core draws jitter from its own xorshift stream seeded
// from Spec.Seed and the core id; streams advance only when that core
// schedules an injection.
package faults

import (
	"fmt"

	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/spec"
)

// Kind identifies one fault class.
type Kind int

const (
	// KindSuspend is a ring transition on the granted core.
	KindSuspend Kind = iota
	// KindEvict is a forced L1 eviction of a recently accessed line.
	KindEvict
	// KindSnoop is an L2 back-invalidation of a recently accessed line.
	KindSnoop
	// KindHTMAbort is a spurious abort of an in-flight hardware txn.
	KindHTMAbort
	numKinds
)

var kindNames = [numKinds]string{
	KindSuspend:  "suspend",
	KindEvict:    "evict",
	KindSnoop:    "snoop",
	KindHTMAbort: "htmabort",
}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Spec configures the plane: for each fault kind, the mean period between
// injections in per-core grants (0 = that kind is off), plus the seed of
// the jitter streams. The same Spec + seed yields the same schedule.
type Spec struct {
	SuspendEvery  uint64
	EvictEvery    uint64
	SnoopEvery    uint64
	HTMAbortEvery uint64
	Seed          uint64
}

// Enabled reports whether any fault kind has a non-zero rate.
func (s Spec) Enabled() bool {
	return s.SuspendEvery != 0 || s.EvictEvery != 0 || s.SnoopEvery != 0 || s.HTMAbortEvery != 0
}

// specKeys are the grammar's keys in Spec field order: the kinds, then the seed.
var specKeys = append(kindNames[:], "seed")

func (s *Spec) fields() []*uint64 {
	return []*uint64{&s.SuspendEvery, &s.EvictEvery, &s.SnoopEvery, &s.HTMAbortEvery, &s.Seed}
}

// String renders the spec in the grammar ParseSpec accepts, with every
// field explicit — the canonical form used in reports.
func (s Spec) String() string { return spec.Format(specKeys, s.fields(), false) }

// ParseSpec parses the internal/spec grammar, e.g.
// "suspend=600,evict=900,snoop=1300,htmabort=1500,seed=3". Keys are the
// four fault kinds (value = mean grants between injections, 0 = off) and
// "seed"; omitted keys default to zero, unknown keys are errors.
func ParseSpec(text string) (Spec, error) {
	var s Spec
	if err := spec.Parse(text, specKeys, s.fields()); err != nil {
		return Spec{}, fmt.Errorf("faults: %w", err)
	}
	return s, nil
}

// Event is one injected fault, recorded at the point of injection.
type Event struct {
	Core  int
	Cycle uint64 // granted core's clock when the injection fired
	Kind  Kind
	Line  uint64 // target line address for evict/snoop, else 0
}

// eventCap bounds the recorded schedule; counts keep accumulating past it.
const eventCap = 1 << 16

// coreState is one core's injection scheduler.
type coreState struct {
	ops  uint64           // grants observed on this core
	rng  uint64           // xorshift jitter stream
	next [numKinds]uint64 // ops count of each kind's next injection
}

func (cs *coreState) rand() uint64 {
	x := cs.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	cs.rng = x
	return x
}

// schedule sets the kind's next injection point: half the period as a
// floor plus uniform jitter, so injections neither cluster at zero nor
// lock into a fixed phase relative to transaction boundaries.
func (cs *coreState) schedule(k Kind, period uint64) {
	cs.next[k] = cs.ops + period/2 + cs.rand()%period + 1
}

// Plane is the installed fault injector. All mutation happens inside
// scheduler grants (OnGrant), so no locking is needed and the recorded
// schedule is deterministic.
type Plane struct {
	spec     Spec
	cores    []coreState
	events   []Event
	counts   [numKinds]uint64
	skipped  uint64 // injections with no viable target (no recent line / no active hw txn)
	aborters []func(core int) bool
}

// Attach builds a plane for spec and installs it as the machine's fault
// hook. Call before Machine.Run.
func Attach(m *sim.Machine, spec Spec) *Plane {
	p := &Plane{
		spec:  spec,
		cores: make([]coreState, m.Config().Cores),
	}
	periods := spec.fields() // indexed by Kind
	for i := range p.cores {
		cs := &p.cores[i]
		cs.rng = mix(spec.Seed, uint64(i))
		for k := Kind(0); k < numKinds; k++ {
			if period := *periods[k]; period > 0 {
				cs.schedule(k, period)
			}
		}
	}
	m.SetFaultHook(p)
	return p
}

// mix derives a non-zero per-core stream seed (splitmix64 finalizer).
func mix(seed, core uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + core*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// RegisterHTMAborter adds a callback that dooms core's in-flight hardware
// transaction and reports whether one was hit. HTM-capable schemes
// register their manager here; without one, htmabort injections are
// counted as skipped.
func (p *Plane) RegisterHTMAborter(f func(core int) bool) {
	p.aborters = append(p.aborters, f)
}

// OnGrant implements sim.FaultHook: count the grant and fire any due
// injections, in the fixed kind order (suspend, evict, snoop, htmabort).
func (p *Plane) OnGrant(c *sim.Ctx) {
	cs := &p.cores[c.ID()]
	cs.ops++
	if period := p.spec.SuspendEvery; period > 0 && cs.ops >= cs.next[KindSuspend] {
		cycle := c.Clock()
		c.InjectSuspend()
		p.record(Event{Core: c.ID(), Cycle: cycle, Kind: KindSuspend})
		cs.schedule(KindSuspend, period)
	}
	if period := p.spec.EvictEvery; period > 0 && cs.ops >= cs.next[KindEvict] {
		if line, ok := c.RecentLine(cs.rand()); ok && c.Machine().Caches.EvictLine(c.ID(), line) {
			p.record(Event{Core: c.ID(), Cycle: c.Clock(), Kind: KindEvict, Line: line})
		} else {
			p.skipped++
		}
		cs.schedule(KindEvict, period)
	}
	if period := p.spec.SnoopEvery; period > 0 && cs.ops >= cs.next[KindSnoop] {
		if line, ok := c.RecentLine(cs.rand()); ok {
			c.Machine().Caches.BackInvalidateLine(line)
			p.record(Event{Core: c.ID(), Cycle: c.Clock(), Kind: KindSnoop, Line: line})
		} else {
			p.skipped++
		}
		cs.schedule(KindSnoop, period)
	}
	if period := p.spec.HTMAbortEvery; period > 0 && cs.ops >= cs.next[KindHTMAbort] {
		hit := false
		for _, f := range p.aborters {
			if f(c.ID()) {
				hit = true
			}
		}
		if hit {
			p.record(Event{Core: c.ID(), Cycle: c.Clock(), Kind: KindHTMAbort})
		} else {
			p.skipped++
		}
		cs.schedule(KindHTMAbort, period)
	}
}

func (p *Plane) record(ev Event) {
	p.counts[ev.Kind]++
	if len(p.events) < eventCap {
		p.events = append(p.events, ev)
	}
}

// Events returns the recorded fault schedule in injection order (capped
// at 64k events; counts are exact regardless).
func (p *Plane) Events() []Event {
	out := make([]Event, len(p.events))
	copy(out, p.events)
	return out
}

// Count returns how many faults of kind k were injected.
func (p *Plane) Count(k Kind) uint64 { return p.counts[k] }

// Skipped returns how many due injections found no viable target.
func (p *Plane) Skipped() uint64 { return p.skipped }

// Counts returns the per-kind injection counts keyed by kind name,
// omitting zero entries.
func (p *Plane) Counts() map[string]uint64 {
	out := make(map[string]uint64)
	for k := Kind(0); k < numKinds; k++ {
		if p.counts[k] > 0 {
			out[k.String()] = p.counts[k]
		}
	}
	return out
}

// ScheduleHash is an FNV-1a digest of the full fault schedule — two runs
// injected identically iff their hashes (and event counts) match. The
// conformance suite compares it across -j worker counts.
func (p *Plane) ScheduleHash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mixWord := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	for _, ev := range p.events {
		mixWord(uint64(ev.Core))
		mixWord(ev.Cycle)
		mixWord(uint64(ev.Kind))
		mixWord(ev.Line)
	}
	return h
}
