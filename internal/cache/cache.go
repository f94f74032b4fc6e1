// Package cache models the cache hierarchy of the simulated machine: one
// private L1 data cache per core plus one shared, inclusive L2.
//
// Data never lives here — the authoritative copy is in package mem. The
// caches track only what the paper's hardware mechanisms need: line
// residency, a coherence state, LRU, and the per-line mark-bit mask that
// implements the proposed ISA extension (one mark bit per 16-byte sub-block
// of a 64-byte line, i.e. four bits per line).
//
// Coherence is directory-style: each L2 line carries a sharer set naming
// the L1 groups that hold a copy, so a store invalidates exactly the actual
// sharers instead of probing every L1 in the machine. The sharer sets are
// precise — set when an L1 fills a line, cleared when the copy drops — and
// they are walked in ascending group order, which produces the exact event
// order of the broadcast snoop they replaced.
//
// Mark bits are private per hardware thread (= per core here) and
// non-persistent: they are cleared when a line is filled and they vanish
// when the line leaves the cache or is invalidated. Every way a marked line
// can be lost is surfaced through the DropListener so the simulator can
// increment the owning core's saturating mark counter, and so the HTM model
// can detect conflicts and capacity aborts.
//
// On the host side an access scans each set it names at most once, and
// resetmarkall is an epoch increment; DESIGN.md §4 "One scan per cache set"
// explains how.
package cache

import (
	"errors"
	"fmt"
	"math/bits"

	"hastm.dev/hastm/internal/mem"
)

// DropReason says why a line left an L1 cache (and with it, its mark bits).
type DropReason int

const (
	// DropEvict: the line was evicted to make room (capacity/conflict).
	DropEvict DropReason = iota
	// DropInvalidate: a store by another core invalidated the line.
	DropInvalidate
	// DropBackInvalidate: the inclusive L2 evicted the line, forcing it out
	// of every L1 ("the inclusive nature of the cache hierarchy also
	// results in one core accidentally kicking out marked cache lines of
	// another core", §7.4).
	DropBackInvalidate
	// DropSiblingStore: an SMT sibling sharing this L1 stored to the line;
	// the line stays resident for the victim but its mark bits die
	// ("stores by one thread invalidate other threads' mark bits", §3.1).
	DropSiblingStore
)

// MaxSMT is the maximum number of hardware threads sharing one L1.
const MaxSMT = 2

// MaxGroups bounds the L1 groups the directory can name.
const MaxGroups = 256

// maxAssoc bounds the ways of a level: an L1 line records its L2 way in
// one byte.
const maxAssoc = 1 << 8

// NumMarkPlanes is how many independent mark-bit filters each line
// carries. The paper implements one but notes "one could support multiple
// filters concurrently with independent mark bits to enable additional
// software uses" (§3.1); plane 0 accelerates read barriers, plane 1 is
// used by the optional write/undo-log filtering extension.
const NumMarkPlanes = 2

// MarkMasks is a line's mark bits, one 4-bit mask per plane.
type MarkMasks [NumMarkPlanes]uint8

// Any reports whether any plane has any bit set.
func (m MarkMasks) Any() bool {
	for _, v := range m {
		if v != 0 {
			return true
		}
	}
	return false
}

// A stored mark byte holds the sub-block mask in its low nibble and the
// epoch it was written in, already shifted, in its high nibble.
const (
	maskBits  = 0x0f
	epochBits = 0xf0
	epochStep = 0x10
)

// DropListener observes every line leaving an L1. byCore is the core whose
// access caused the drop (== core for plain evictions). marks holds the
// line's mark bits, per plane, at the time of the drop.
type DropListener interface {
	LineDropped(core int, lineAddr uint64, marks MarkMasks, reason DropReason, byCore int)
}

// RemoteReadListener observes loads that hit a line held by another core.
// The HTM model uses it to detect read-after-speculative-write conflicts.
type RemoteReadListener interface {
	LineRead(reader int, lineAddr uint64)
}

// ErrBadGeometry is the named error every cache-geometry validation
// failure wraps: the set-index lookup masks with len(sets)-1, so sets,
// ways and the line size must all be positive powers of two or lookups
// would silently truncate to the wrong set; ways are further capped at the
// 256 an L1 line's recorded L2 way can name.
var ErrBadGeometry = errors.New("cache: sets, ways and line size must be positive powers of two, ways at most 256")

// Config describes one cache level.
type Config struct {
	SizeBytes int // total capacity
	Assoc     int // ways per set
}

// Validate checks the geometry at construction time: ways must be a
// positive power of two no larger than 256 and the implied set count
// (SizeBytes / (line × ways)) must divide evenly into a positive power of
// two. The line size is the fixed mem.LineSize (64, a power of two by
// construction). Failures wrap ErrBadGeometry.
func (c Config) Validate() error {
	if c.Assoc <= 0 || c.Assoc&(c.Assoc-1) != 0 {
		return fmt.Errorf("%w: %d ways", ErrBadGeometry, c.Assoc)
	}
	if c.Assoc > maxAssoc {
		return fmt.Errorf("%w: %d ways exceeds the %d an L1 line can record", ErrBadGeometry, c.Assoc, maxAssoc)
	}
	way := mem.LineSize * c.Assoc
	s := c.SizeBytes / way
	if c.SizeBytes%way != 0 || s <= 0 || s&(s-1) != 0 {
		return fmt.Errorf("%w: %d bytes / (%d ways × %dB lines) yields %d sets",
			ErrBadGeometry, c.SizeBytes, c.Assoc, mem.LineSize, s)
	}
	return nil
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c.SizeBytes / (mem.LineSize * c.Assoc)
}

type state uint8

const (
	invalid  state = iota
	shared         // possibly replicated, read-only
	modified       // exclusive to one L1, written
)

// AddrLimit is one past the highest address the cache accepts. A tag is
// the 32-bit line number, ^uint32(0) marks an invalid way, and the
// prefetcher reaches two lines past an access, so the last line an access
// may name is 2³² − 4. mem's allocator stops below this (mem.AddrLimit).
const AddrLimit = (1<<32 - 3) * mem.LineSize

// mem's allocator stays below AddrLimit, so no run reaches the panic; this
// constant does not compile if that ever stops being true.
const _ = uint64(AddrLimit - mem.AddrLimit)

// ErrAddrRange is the named panic of an exported entry point given an
// address at or beyond AddrLimit.
var ErrAddrRange = errors.New("cache: address beyond the 32-bit line-number range")

// noTag is the tag of every invalid way.
const noTag = ^uint32(0)

// lineOf returns addr's line number, the tag.
func lineOf(addr uint64) uint32 {
	if addr >= AddrLimit {
		panic(addrError(addr))
	}
	return uint32(addr / mem.LineSize)
}

// addrError is lineOf's panic, an ErrAddrRange formatted only when read: a
// panic is no call, so an access keeps nothing on its stack for one.
type addrError uint64

func (a addrError) Error() string {
	return fmt.Sprintf("%v: %#x (limit %#x)", ErrAddrRange, uint64(a), uint64(AddrLimit))
}

func (a addrError) Unwrap() error { return ErrAddrRange }

// addrOf returns the address of line number t.
func addrOf(t uint32) uint64 { return uint64(t) * mem.LineSize }

// way is what a probe reads, 8 bytes, so find and victim scan 64 bytes of
// an 8-way set. The tag is noTag iff the way is invalid, and then lru is 0.
type way struct {
	tag, lru uint32
}

// lineState is the rest of an L1 way, 6 bytes in an array parallel to the
// ways; an L2 way needs none of it.
type lineState struct {
	st state
	// l2way is, on a valid line, the way of its copy in the inclusive L2.
	l2way uint8
	// mark holds each hardware thread's private filter bits: per SMT thread
	// sharing this L1, per plane, a 4-bit mask (one bit per 16B sub-block)
	// under the epoch it was written in (see maskBits).
	mark [MaxSMT]MarkMasks
}

// sharerMask is a directory entry's sharer set: one bit per L1 group, in as
// many words as the group count needs. The L2 keeps one per way in a flat
// array parallel to its ways, and nothing else beside them. eachSharer is
// the one walk over them.
type sharerMask []uint64

func (m sharerMask) set(g int)   { m[g>>6] |= 1 << (g & 63) }
func (m sharerMask) clear(g int) { m[g>>6] &^= 1 << (g & 63) }

// empty is the cheap test for no sharers: a one-word entry that is zero. A
// wider entry counts as non-empty; walking it finds out.
func (m sharerMask) empty() bool { return m[0] == 0 && len(m) == 1 }

// level is one cache, its arrays set-major and addressed by way index
// everywhere. New carves every level's arrays out of one allocation per
// kind. The fields a probe reads come first.
type level struct {
	ways    []way
	setMask uint32 // sets-1; Sets() guarantees a power of two
	tick    uint32
	assoc   int // ways per set

	// On L1 levels: the state of each way, the group's index in the
	// machine (its sharer bit in the directory), and each (thread slot,
	// plane)'s current mark epoch, shifted like the mark bytes.
	state []lineState
	id    int
	epoch [MaxSMT]MarkMasks

	// On the L2: stride directory words per way, indexed like ways.
	sharers []uint64
	stride  int // ceil(groups / 64)
}

// base returns the index of the first way of line t's set.
func (l *level) base(t uint32) int {
	return int(t&l.setMask) * l.assoc
}

// dirEntry returns the directory entry of way i.
func (l *level) dirEntry(i int) sharerMask {
	at := i * l.stride
	return l.sharers[at : at+l.stride]
}

// find returns the index of the way holding line t, or -1, in one tag
// compare per way.
func (l *level) find(t uint32) int {
	b := l.base(t)
	set := l.ways[b : b+l.assoc]
	for i := range set {
		if set[i].tag == t {
			return b + i
		}
	}
	return -1
}

// victim returns the index of the way to fill for line t: the first
// invalid way if one exists, else the LRU way — in one comparison per way,
// because an invalid way's lru is 0 and a valid one's is at least 1. The
// way may hold a valid line that the caller must handle (eviction).
func (l *level) victim(t uint32) int {
	b := l.base(t)
	set := l.ways[b : b+l.assoc]
	best, oldest := 0, set[0].lru
	for i, w := range set {
		if w.lru < oldest {
			best, oldest = i, w.lru
		}
	}
	return b + best
}

// touch makes way i its set's most recently used.
func (l *level) touch(i int) {
	if l.tick == ^uint32(0) {
		l.renumber()
	}
	l.tick++
	l.ways[i].lru = l.tick
}

// renumber replaces each valid way's stamp by its rank in its set (1 for
// the least recently used; invalid ways keep 0) and restarts the tick
// above every rank, so the tick can wrap without changing any set's order
// and with it any victim choice.
func (l *level) renumber() {
	var rank [maxAssoc]uint32
	for b := 0; b < len(l.ways); b += l.assoc {
		set := l.ways[b : b+l.assoc]
		for i := range set {
			rank[i] = 0
			if set[i].lru == 0 {
				continue
			}
			for j := range set {
				if set[j].lru != 0 && set[j].lru <= set[i].lru {
					rank[i]++
				}
			}
		}
		for i := range set {
			set[i].lru = rank[i]
		}
	}
	l.tick = uint32(l.assoc)
}

// marks returns the live mark masks of way i for one thread slot: a byte
// written in an earlier epoch of its (slot, plane) reads as clear.
func (l *level) marks(i, slot int) MarkMasks {
	var m MarkMasks
	for p, b := range l.state[i].mark[slot] {
		if b&epochBits == l.epoch[slot][p] {
			m[p] = b & maskBits
		}
	}
	return m
}

// Hierarchy is the full cache system: per-core L1s over one shared
// inclusive L2, kept coherent by per-line directory sharer sets.
type Hierarchy struct {
	l1       []level
	l2       level
	tpc      int  // hardware threads per core (per L1): 1 or 2
	tpcShift uint // log2(tpc)

	prefetch bool // next-line prefetch into L1 on L1 miss

	// sharerProbes counts the L1 lookups walkSharers makes, one per
	// sharer bit it visits, found or not. Read by tests only.
	sharerProbes uint64

	dropListeners []DropListener
	readListeners []RemoteReadListener

	// Stats
	L1Hits, L1Misses  uint64
	L2Hits, L2Misses  uint64
	Invalidations     uint64
	BackInvalidations uint64
	Evictions         uint64
	MarkedDrops       uint64 // drops of lines that had mark bits set
	PrefetchFills     uint64
}

// HierarchyConfig configures New. Cores is the number of HARDWARE THREADS;
// ThreadsPerCore > 1 groups them onto shared L1s (SMT).
type HierarchyConfig struct {
	Cores          int
	ThreadsPerCore int // 0 or 1 = no SMT; at most MaxSMT
	L1             Config
	L2             Config
	Prefetch       bool
}

// Validate checks the whole hierarchy configuration — both levels'
// geometry (wrapping ErrBadGeometry) and the thread factoring —
// without building anything, so callers can surface a clear error instead
// of a construction panic.
func (cfg HierarchyConfig) Validate() error {
	if err := cfg.L1.Validate(); err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	if err := cfg.L2.Validate(); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	if cfg.Cores <= 0 {
		return errors.New("cache: need at least one hardware thread")
	}
	tpc := cfg.ThreadsPerCore
	if tpc <= 0 {
		tpc = 1
	}
	if tpc > MaxSMT {
		return fmt.Errorf("cache: ThreadsPerCore %d exceeds MaxSMT %d", tpc, MaxSMT)
	}
	if cfg.Cores%tpc != 0 {
		return errors.New("cache: thread count must be a multiple of ThreadsPerCore")
	}
	if groups := cfg.Cores / tpc; groups > MaxGroups {
		return fmt.Errorf("cache: %d L1 groups exceeds the %d-entry directory", groups, MaxGroups)
	}
	return nil
}

// New builds the hierarchy for the given number of hardware threads.
func New(cfg HierarchyConfig) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	tpc := cfg.ThreadsPerCore
	if tpc <= 0 {
		tpc = 1
	}
	groups := cfg.Cores / tpc
	stride := (groups + 63) / 64
	sets1, sets2 := cfg.L1.Sets(), cfg.L2.Sets()
	n1, n2 := sets1*cfg.L1.Assoc, sets2*cfg.L2.Assoc

	// One allocation per array kind; every level carves its slice.
	ways := make([]way, groups*n1+n2)
	for i := range ways {
		ways[i].tag = noTag
	}
	states := make([]lineState, groups*n1)
	h := &Hierarchy{
		l1:       make([]level, groups),
		tpc:      tpc,
		tpcShift: uint(bits.TrailingZeros(uint(tpc))),
		prefetch: cfg.Prefetch,
	}
	for g := range h.l1 {
		h.l1[g] = level{
			ways: carve(&ways, n1), setMask: uint32(sets1 - 1), assoc: cfg.L1.Assoc,
			state: carve(&states, n1), id: g,
		}
	}
	h.l2 = level{
		ways: ways, setMask: uint32(sets2 - 1), assoc: cfg.L2.Assoc,
		sharers: make([]uint64, n2*stride), stride: stride,
	}
	return h
}

// carve returns the first n elements of *a and advances *a past them.
func carve[T any](a *[]T, n int) []T {
	s := (*a)[:n:n]
	*a = (*a)[n:]
	return s
}

// l1Of maps a hardware thread to its (possibly shared) L1.
func (h *Hierarchy) l1Of(thread int) *level { return &h.l1[thread>>h.tpcShift] }

// slotOf maps a hardware thread to its mark slot within a shared L1.
func (h *Hierarchy) slotOf(thread int) int { return thread & (h.tpc - 1) }

// L1Groups returns how many L1s the hierarchy has: its cores, or its cores
// over ThreadsPerCore under SMT. With one, a SpeculativeRFO has no other L1
// to reach and changes nothing.
func (h *Hierarchy) L1Groups() int { return len(h.l1) }

// AddDropListener registers a listener for L1 line drops.
func (h *Hierarchy) AddDropListener(l DropListener) {
	h.dropListeners = append(h.dropListeners, l)
}

// AddRemoteReadListener registers a listener for cross-core line reads.
func (h *Hierarchy) AddRemoteReadListener(l RemoteReadListener) {
	h.readListeners = append(h.readListeners, l)
}

// drop invalidates way i of l1, notifying every hardware thread that
// shares the L1 with its own live marks, and clears the group's bit in the
// directory entry of the L2 way the line recorded (the sharer sets stay
// precise).
func (h *Hierarchy) drop(l1 *level, i int, reason DropReason, byThread int) {
	t := l1.ways[i].tag
	if t == noTag {
		return
	}
	s := &l1.state[i]
	var marks [MaxSMT]MarkMasks
	if s.mark[0] != (MarkMasks{}) || s.mark[1] != (MarkMasks{}) { // most lines never carried a mark: no epoch to check
		for slot := 0; slot < h.tpc; slot++ {
			marks[slot] = l1.marks(i, slot)
		}
		if marks != [MaxSMT]MarkMasks{} {
			h.MarkedDrops++
		}
	}
	h.l2.dirEntry(h.l2.base(t) + int(s.l2way)).clear(l1.id)
	l1.ways[i] = way{tag: noTag}
	*s = lineState{}
	switch reason {
	case DropEvict:
		h.Evictions++
	case DropInvalidate:
		h.Invalidations++
	case DropBackInvalidate:
		h.BackInvalidations++
	}
	addr := addrOf(t)
	for slot := 0; slot < h.tpc; slot++ {
		thread := l1.id<<h.tpcShift + slot
		for _, l := range h.dropListeners {
			l.LineDropped(thread, addr, marks[slot], reason, byThread)
		}
	}
}

// siblingStore clears the other SMT threads' marks on way i, which the
// storing thread just wrote; the line stays resident for them (same L1),
// but the marks — and for a hardware transaction, the tracked line — are
// gone. Every sibling is notified, marked or not: an HTM sibling tracks
// unmarked lines too.
func (h *Hierarchy) siblingStore(l1 *level, thread, i int) {
	if h.tpc == 1 {
		return
	}
	addr := addrOf(l1.ways[i].tag)
	for slot := 0; slot < h.tpc; slot++ {
		sib := l1.id<<h.tpcShift + slot
		if sib == thread {
			continue
		}
		mark := l1.marks(i, slot)
		if mark.Any() {
			l1.state[i].mark[slot] = MarkMasks{}
			h.MarkedDrops++
		}
		for _, l := range h.dropListeners {
			l.LineDropped(sib, addr, mark, DropSiblingStore, thread)
		}
	}
}

// AccessResult reports where an access hit.
// When an access missed both levels, memory served the line.
type AccessResult struct {
	L1Hit bool
	L2Hit bool // meaningful only when !L1Hit
}

// Access simulates core's load or store of the line containing addr,
// updating residency, coherence and inclusion. It returns where the access
// hit so the caller can charge latency. It serves a read hit, and a write
// hit on a Modified line of an L1 no SMT sibling shares, itself: they move
// nothing but the LRU stamp. Everything else is slowAccess's.
func (h *Hierarchy) Access(thread int, addr uint64, write bool) AccessResult {
	t := lineOf(addr)
	l1 := h.l1Of(thread)
	i := l1.find(t)
	if i < 0 || write && (h.tpc != 1 || l1.state[i].st != modified) {
		res, _ := h.slowAccess(l1, thread, t, i, write)
		return res
	}
	l1.touch(i)
	h.L1Hits++
	if !write && len(h.readListeners) != 0 {
		h.notifyRemoteRead(thread, t)
	}
	return AccessResult{L1Hit: true}
}

// slowAccess is Access out of line, given t's way i or -1, for a write hit
// that must upgrade the line or clear SMT siblings' marks, for a miss (the
// demand fill and its counts, then the next-line prefetches) and for every
// MarkAccess. It also returns the way the demand access left t in.
func (h *Hierarchy) slowAccess(l1 *level, thread int, t uint32, i int, write bool) (AccessResult, int) {
	if i >= 0 {
		l1.touch(i)
		h.L1Hits++
		if !write {
			h.notifyRemoteRead(thread, t)
		} else {
			if l1.state[i].st != modified {
				h.upgrade(l1, thread, t, i)
			}
			h.siblingStore(l1, thread, i)
		}
		return AccessResult{L1Hit: true}, i
	}
	h.L1Misses++
	l2 := &h.l2
	// The one probe of the L2 set; nothing moves the line between ways
	// before fill records it.
	w2 := l2.find(t)
	if w2 >= 0 {
		l2.touch(w2)
		h.L2Hits++
	} else {
		h.L2Misses++
	}
	i = h.fill(l1, thread, t, write, w2)
	if !write {
		h.notifyRemoteRead(thread, t)
	}

	if h.prefetch {
		// Next-line prefetcher, the §7.4 interference source ("prefetches
		// and speculative accesses from one core kick out marked cache
		// lines from another core"). Loads prefetch the next two lines for
		// reading; stores prefetch the next line for ownership, upgrading
		// it if already held. A prefetch is the demand fill — it downgrades
		// or invalidates other copies exactly as a demand miss does — but
		// it costs the requester no latency, tells no remote-read listener
		// and counts in PrefetchFills, not as a hit or miss: its cost is
		// pure pollution.
		degree := uint32(2)
		if write {
			degree = 1
		}
		for next := t + 1; next <= t+degree; next++ {
			if j := l1.find(next); j >= 0 {
				if write && l1.state[j].st != modified {
					h.upgrade(l1, thread, next, j)
				}
				continue
			}
			h.fill(l1, thread, next, write, l2.find(next))
			h.PrefetchFills++
		}
	}
	return AccessResult{L2Hit: w2 >= 0}, i
}

// upgrade makes way i of l1, a Shared copy of line t, Modified: every
// other copy in the machine is invalidated.
func (h *Hierarchy) upgrade(l1 *level, thread int, t uint32, i int) {
	s := &l1.state[i]
	h.invalidateOthers(l1, thread, t, h.l2.base(t)+int(s.l2way))
	s.st = modified
}

// fill installs line t, which l1 does not hold, Shared for a read and
// Modified for a write, and returns the way it filled; w2 is t's way in the
// inclusive L2, or -1 and the L2 fills it first. A read downgrades any
// Modified copy to Shared, so the old owner's next store must invalidate
// this one; a write invalidates every other copy. The new line's marks
// start clear ("when the processor brings a line into the cache, it clears
// all the mark bits for the new line"). Demand misses and prefetches share
// this one path.
func (h *Hierarchy) fill(l1 *level, thread int, t uint32, write bool, w2 int) int {
	l2 := &h.l2
	if w2 < 0 {
		// By inclusion no L1 holds a line the L2 missed.
		w2 = h.fillL2(t)
	} else if !write {
		h.eachSharer(l2.dirEntry(w2), t, l1, func(other *level, j int) {
			if other.state[j].st == modified {
				other.state[j].st = shared
			}
		})
	}
	vi := l1.victim(t)
	h.drop(l1, vi, DropEvict, thread)
	st := shared
	if write {
		h.invalidateOthers(l1, thread, t, w2)
		st = modified
	}
	l1.ways[vi].tag = t
	l1.state[vi] = lineState{st: st, l2way: uint8(w2 & (l2.assoc - 1))}
	l1.touch(vi)
	l2.dirEntry(w2).set(l1.id)
	return vi
}

// eachSharer calls fn with the L1 and way of every copy of line t that the
// directory entry m names, skipping the L1 skip, in ascending group order:
// the order the broadcast snoop the directory replaced scanned. fn may drop
// the copy, which clears only the bit just visited. It stays small enough
// to inline, so an empty entry, the common case, costs no call.
func (h *Hierarchy) eachSharer(m sharerMask, t uint32, skip *level, fn func(l1 *level, j int)) {
	if !m.empty() {
		h.walkSharers(m, t, skip, fn)
	}
}

// walkSharers is eachSharer's walk.
func (h *Hierarchy) walkSharers(m sharerMask, t uint32, skip *level, fn func(l1 *level, j int)) {
	for wi, word := range m {
		for word != 0 {
			l1 := &h.l1[wi<<6+bits.TrailingZeros64(word)]
			word &= word - 1
			if l1 == skip {
				continue
			}
			h.sharerProbes++
			if j := l1.find(t); j >= 0 {
				fn(l1, j)
			}
		}
	}
}

// fillL2 installs line t into the L2 and returns the way it filled; the
// victim, if any, is back-invalidated out of the L1s — exactly the sharers
// its directory entry names — to preserve inclusion.
func (h *Hierarchy) fillL2(t uint32) int {
	l2 := &h.l2
	vi := l2.victim(t)
	vm := l2.dirEntry(vi)
	if evicted := l2.ways[vi].tag; evicted != noTag {
		h.eachSharer(vm, evicted, nil, func(l1 *level, j int) {
			h.drop(l1, j, DropBackInvalidate, -1)
		})
	}
	l2.ways[vi].tag = t
	clear(vm)
	l2.touch(vi)
	return vi
}

// SpeculativeRFO models a wrong-path / predicted-store read-for-ownership
// request from core: every other core's copy of the line is invalidated
// (discarding its mark bits), exactly the "speculative accesses from one
// core kick out marked cache lines from another core" interference of
// §7.4. The requesting core gains nothing; the request is off its critical
// path.
func (h *Hierarchy) SpeculativeRFO(thread int, lineAddr uint64) {
	t := lineOf(lineAddr)
	l1 := h.l1Of(thread)
	h.invalidateOthers(l1, thread, t, h.l2.find(t))
}

// EvictLine forces the line containing addr out of the thread's L1, as a
// set-pressure capacity eviction would, and reports whether a resident
// line was actually dropped. The L2 copy survives (a forced L1 eviction
// models associativity pressure, not data loss), so a re-access hits L2.
// Fault injection uses this to exercise mark-bit loss at chosen points.
func (h *Hierarchy) EvictLine(thread int, addr uint64) bool {
	t := lineOf(addr)
	l1 := h.l1Of(thread)
	i := l1.find(t)
	if i < 0 {
		return false
	}
	h.drop(l1, i, DropEvict, thread)
	return true
}

// BackInvalidateLine forces the line containing addr out of the L2 and —
// by inclusion — out of every sharing L1, exactly what an L2 victimisation
// does ("one core accidentally kicking out marked cache lines of another
// core", §7.4), and returns how many L1 copies were dropped. Fault
// injection uses this as an on-demand snoop/back-invalidation.
func (h *Hierarchy) BackInvalidateLine(addr uint64) int {
	t := lineOf(addr)
	i := h.l2.find(t)
	if i < 0 {
		return 0
	}
	n := 0
	m := h.l2.dirEntry(i)
	h.eachSharer(m, t, nil, func(l1 *level, j int) {
		h.drop(l1, j, DropBackInvalidate, -1)
		n++
	})
	h.l2.ways[i] = way{tag: noTag}
	clear(m)
	return n
}

// invalidateOthers removes line t from every L1 except the writer's,
// walking the directory's sharer set instead of probing each L1. i2 is t's
// way in the L2, or -1 and by inclusion no L1 holds t.
func (h *Hierarchy) invalidateOthers(l1 *level, writer int, t uint32, i2 int) {
	if i2 >= 0 {
		h.eachSharer(h.l2.dirEntry(i2), t, l1, func(other *level, j int) {
			h.drop(other, j, DropInvalidate, writer)
		})
	}
}

func (h *Hierarchy) notifyRemoteRead(reader int, t uint32) {
	for _, l := range h.readListeners {
		l.LineRead(reader, addrOf(t))
	}
}

// markSpan returns the mask of sub-block mark bits a mark instruction of
// the given granularity covers at addr. Granularity 16 addresses one
// sub-block; granularity 64 (the _granularity64 instruction variants)
// addresses every sub-block of addr's line; intermediate granularities
// cover the touched sub-blocks, clamped to the line.
func markSpan(addr, gran uint64) uint8 {
	if gran >= mem.LineSize {
		return 0b1111
	}
	if gran == 0 {
		gran = 1
	}
	first := mem.SubBlock(addr)
	last := first + uint((gran-1)/16)
	if last > 3 {
		last = 3
	}
	var m uint8
	for b := first; b <= last; b++ {
		m |= 1 << b
	}
	return m
}

// MarkOp is what a mark instruction does to the mark bits its load covers.
type MarkOp uint8

const (
	MarkTest  MarkOp = iota // loadtestmark: report whether every covered bit is set
	MarkSet                 // loadsetmark: set the covered bits
	MarkReset               // loadresetmark: clear the covered bits
)

// MarkAccess is a mark instruction's load: Access for a read, and op on
// plane's bits covering [addr, addr+size), on one probe of the L1 set.
// MarkTest reports whether ALL covered bits were set as the load found the
// line (the carry flag), so a miss reads unmarked. MarkSet and MarkReset
// act on the way the access left the line in, unless its own prefetch has
// back-invalidated the line: then the mark is lost, as hardware loses it.
func (h *Hierarchy) MarkAccess(thread, plane int, addr, size uint64, op MarkOp) (AccessResult, bool) {
	t := lineOf(addr)
	l1, slot := h.l1Of(thread), h.slotOf(thread)
	span := markSpan(addr, size)
	i := l1.find(t)
	marked := op == MarkTest && i >= 0 && l1.marks(i, slot)[plane]&span == span
	res, i := h.slowAccess(l1, thread, t, i, false)
	if op != MarkTest && l1.ways[i].tag == t {
		b, e := &l1.state[i].mark[slot][plane], l1.epoch[slot][plane]
		live := *b&epochBits == e // a byte of an earlier epoch reads as clear
		if op == MarkSet {
			if !live {
				*b = e
			}
			*b |= span
		} else if live {
			*b &^= span
		}
	}
	return res, marked
}

// ClearAllMarks clears every mark bit of one plane in core's L1
// (resetmarkall) by moving the (thread, plane) to its next epoch. Lines
// stay resident. When the 4-bit epoch wraps, marks written sixteen epochs
// ago would read as live again, so that one call in sixteen clears the
// plane's bytes in every line instead.
func (h *Hierarchy) ClearAllMarks(thread, plane int) {
	l1, slot := h.l1Of(thread), h.slotOf(thread)
	e := &l1.epoch[slot][plane]
	if *e += epochStep; *e != 0 {
		return
	}
	for i := range l1.state {
		l1.state[i].mark[slot][plane] = 0
	}
}
