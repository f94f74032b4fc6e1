// Package cache models the cache hierarchy of the simulated machine: one
// private L1 data cache per core plus a shared, inclusive L2 per socket.
//
// Data never lives here — the authoritative copy is in package mem. The
// caches track only what the paper's hardware mechanisms need: line
// residency, a coherence state, LRU, and the per-line mark-bit mask that
// implements the proposed ISA extension (one mark bit per 16-byte sub-block
// of a 64-byte line, i.e. four bits per line).
//
// Coherence is directory-style: each L2 line carries a sharer set naming
// the L1 groups of its socket that hold a copy, so a store invalidates
// exactly the actual sharers instead of probing every L1 in the machine.
// The sharer sets are precise — set when an L1 fills a line, cleared when
// the copy drops — and they are walked in ascending group order, which
// makes a 1-socket machine produce the exact event order of the broadcast
// snoop it replaced. With more than one socket, misses that another
// socket's L2 must serve (clean or dirty) are flagged on the AccessResult
// so the simulator can charge cross-socket latency, and per-socket NUMA
// counters record the interconnect traffic.
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

func (r DropReason) String() string {
	switch r {
	case DropEvict:
		return "evict"
	case DropInvalidate:
		return "invalidate"
	case DropBackInvalidate:
		return "back-invalidate"
	case DropSiblingStore:
		return "sibling-store"
	default:
		return fmt.Sprintf("DropReason(%d)", int(r))
	}
}

// MaxSMT is the maximum number of hardware threads sharing one L1.
const MaxSMT = 2

// MaxGroupsPerSocket bounds the L1 groups one socket's directory can name.
const MaxGroupsPerSocket = 256

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

// noTag is the tag of every invalid way: line addresses are multiples of
// 64, so a probe matches on the tag alone.
const noTag = ^uint64(0)

type line struct {
	tag uint64 // line address (addr &^ 63); noTag iff st == invalid (and then lru is 0)
	st  state
	// mark holds each hardware thread's private filter bits: per plane, per
	// SMT thread sharing this L1, a 4-bit mask (one bit per 16B sub-block)
	// under the epoch it was written in (see maskBits).
	mark [MaxSMT]MarkMasks
	// l2way is, on a valid L1 line, the way of its copy in the socket's
	// inclusive L2.
	l2way uint8
	lru   uint64
}

func (w *line) invalidate() {
	*w = line{tag: noTag}
}

// sharerMask is a directory entry's sharer set: one bit per L1 group of
// the owning socket, in as many words as the socket's group count needs.
// Kept out of the line struct so L1 probe loops stay compact; L2 levels
// carry one mask per way in a parallel flat array. A walk ranges over the
// words in place: the drop it causes clears only the bit just visited.
type sharerMask []uint64

func (m sharerMask) set(g int)   { m[g>>6] |= 1 << (g & 63) }
func (m sharerMask) clear(g int) { m[g>>6] &^= 1 << (g & 63) }

// level is one cache: its ways, set-major in one slab (a machine builds
// thousands of sets, and one make per set was nearly all of sim.New's
// allocation count), addressed by index everywhere. The fields a probe
// reads come first, so they share one host cache line.
type level struct {
	ways    []line
	setMask uint64 // sets-1; Sets() guarantees a power of two
	assoc   int    // ways per set
	sock    int    // the socket the level belongs to

	tick    uint64
	sharers []uint64 // stride words per way, indexed like ways; non-nil only on directory (L2) levels
	stride  int      // words per directory entry: ceil(groups per socket / 64)

	// On L1 levels: the group's index in the machine, its sharer bit in the
	// socket's directory, and each (thread slot, plane)'s current mark
	// epoch, shifted like the mark bytes.
	id, bit int
	epoch   [MaxSMT]MarkMasks
}

// newLevel builds an empty level; dirGroups > 0 makes it a directory
// naming that many L1 groups.
func newLevel(cfg Config, dirGroups int) *level {
	sets := cfg.Sets()
	l := &level{
		ways:    make([]line, sets*cfg.Assoc),
		setMask: uint64(sets - 1),
		assoc:   cfg.Assoc,
	}
	for i := range l.ways {
		l.ways[i].tag = noTag
	}
	if dirGroups > 0 {
		l.stride = (dirGroups + 63) / 64
		l.sharers = make([]uint64, len(l.ways)*l.stride)
	}
	return l
}

// base returns the index of the first way of lineAddr's set.
func (l *level) base(lineAddr uint64) int {
	return int((lineAddr/mem.LineSize)&l.setMask) * l.assoc
}

// dirEntry returns the directory entry of way i.
func (l *level) dirEntry(i int) sharerMask {
	at := i * l.stride
	return l.sharers[at : at+l.stride]
}

// find returns the index of the way holding lineAddr, or -1, in one tag
// compare per way.
func (l *level) find(lineAddr uint64) int {
	b := l.base(lineAddr)
	set := l.ways[b : b+l.assoc]
	for i := range set {
		if set[i].tag == lineAddr {
			return b + i
		}
	}
	return -1
}

// lookup returns the way holding lineAddr, or nil.
func (l *level) lookup(lineAddr uint64) *line {
	if i := l.find(lineAddr); i >= 0 {
		return &l.ways[i]
	}
	return nil
}

// victim returns the index of the way to fill for lineAddr: the first
// invalid way if one exists, else the LRU way — in one comparison per way,
// because an invalid way's lru is 0 and a valid one's is at least 1. The
// way may hold a valid line that the caller must handle (eviction).
func (l *level) victim(lineAddr uint64) int {
	b := l.base(lineAddr)
	set := l.ways[b : b+l.assoc]
	best := 0
	for i := range set {
		if set[i].lru < set[best].lru {
			best = i
		}
	}
	return b + best
}

func (l *level) touch(w *line) {
	l.tick++
	w.lru = l.tick
}

// marks returns the live mark masks of w for one thread slot: a byte
// written in an earlier epoch of its (slot, plane) reads as clear.
func (l *level) marks(w *line, slot int) MarkMasks {
	var m MarkMasks
	for p, b := range w.mark[slot] {
		if b&epochBits == l.epoch[slot][p] {
			m[p] = b & maskBits
		}
	}
	return m
}

// SocketCounters is one socket's NUMA traffic block. Each socket gets its
// own cache-line-padded block (the per-thread telemetry idiom); counters
// are plain increments under the simulator's grant lease and are merged at
// report time. All three counters measure cross-socket interconnect
// traffic, so a 1-socket machine leaves them structurally zero.
type SocketCounters struct {
	// CrossSocketMisses counts this socket's misses that left the socket:
	// served by a remote socket's L2 (clean or dirty) or by a memory page
	// whose home is another socket.
	CrossSocketMisses uint64
	// RemoteDirtyFetches counts this socket's misses served from a line
	// another socket's core held modified (dirty-remote transfer).
	RemoteDirtyFetches uint64
	// DirectoryInvalidations counts invalidation messages this socket's
	// writers sent across the interconnect: one per remote L1 copy dropped
	// plus one per remote L2 line invalidated.
	DirectoryInvalidations uint64

	_ [5]uint64 // pad to one host cache line
}

// Hierarchy is the full cache system: per-core L1s over one shared
// inclusive L2 per socket, kept coherent by per-line directory sharer
// sets.
type Hierarchy struct {
	l1       []*level
	l2       []*level // one per socket
	tpc      int      // hardware threads per core (per L1): 1 or 2
	tpcShift uint     // log2(tpc)
	gps      int      // L1 groups per socket
	sockets  int

	prefetch bool // next-line prefetch into L1 on L1 miss

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

	// Socket holds the per-socket NUMA traffic blocks, indexed by socket.
	Socket []SocketCounters
}

// HierarchyConfig configures New. Cores is the number of HARDWARE THREADS;
// ThreadsPerCore > 1 groups them onto shared L1s (SMT); Sockets > 1 splits
// the L1 groups evenly over per-socket L2s (0 means 1).
type HierarchyConfig struct {
	Cores          int
	ThreadsPerCore int // 0 or 1 = no SMT; at most MaxSMT
	Sockets        int // 0 or 1 = flat single-socket machine
	L1             Config
	L2             Config
	Prefetch       bool
}

// Validate checks the whole hierarchy configuration — both levels'
// geometry (wrapping ErrBadGeometry) and the thread/socket factoring —
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
	sockets := cfg.Sockets
	if sockets <= 0 {
		sockets = 1
	}
	groups := cfg.Cores / tpc
	if groups%sockets != 0 {
		return fmt.Errorf("cache: %d L1 groups do not split evenly over %d sockets", groups, sockets)
	}
	if gps := groups / sockets; gps > MaxGroupsPerSocket {
		return fmt.Errorf("cache: %d L1 groups per socket exceeds the %d-entry directory", gps, MaxGroupsPerSocket)
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
	sockets := cfg.Sockets
	if sockets <= 0 {
		sockets = 1
	}
	groups := cfg.Cores / tpc
	h := &Hierarchy{
		tpc:      tpc,
		tpcShift: uint(bits.TrailingZeros(uint(tpc))),
		gps:      groups / sockets,
		sockets:  sockets,
		prefetch: cfg.Prefetch,
		Socket:   make([]SocketCounters, sockets),
	}
	for i := 0; i < groups; i++ {
		l := newLevel(cfg.L1, 0)
		l.id, l.sock, l.bit = i, i/h.gps, i%h.gps
		h.l1 = append(h.l1, l)
	}
	for s := 0; s < sockets; s++ {
		l := newLevel(cfg.L2, h.gps)
		l.sock = s
		h.l2 = append(h.l2, l)
	}
	return h
}

// l1Of maps a hardware thread to its (possibly shared) L1.
func (h *Hierarchy) l1Of(thread int) *level { return h.l1[thread>>h.tpcShift] }

// slotOf maps a hardware thread to its mark slot within a shared L1.
func (h *Hierarchy) slotOf(thread int) int { return thread & (h.tpc - 1) }

// SocketOf maps a hardware thread to its socket.
func (h *Hierarchy) SocketOf(thread int) int { return h.l1Of(thread).sock }

// NumSockets returns the machine's socket count.
func (h *Hierarchy) NumSockets() int { return h.sockets }

// NoteRemoteMemory records a miss of thread's socket that memory with a
// remote home socket had to serve. The simulator calls this when the
// placement policy homes the missed page on another socket.
func (h *Hierarchy) NoteRemoteMemory(thread int) {
	h.Socket[h.SocketOf(thread)].CrossSocketMisses++
}

// AddDropListener registers a listener for L1 line drops.
func (h *Hierarchy) AddDropListener(l DropListener) {
	h.dropListeners = append(h.dropListeners, l)
}

// AddRemoteReadListener registers a listener for cross-core line reads.
func (h *Hierarchy) AddRemoteReadListener(l RemoteReadListener) {
	h.readListeners = append(h.readListeners, l)
}

// drop invalidates a line of l1, notifying every hardware thread that
// shares the L1 with its own live marks, and clears the group's bit in the
// directory entry of the L2 way the line recorded (the sharer sets stay
// precise).
func (h *Hierarchy) drop(l1 *level, w *line, reason DropReason, byThread int) {
	if w.st == invalid {
		return
	}
	addr := w.tag
	var marks [MaxSMT]MarkMasks
	if w.mark != marks { // most lines never carried a mark: no epoch to check
		for t := 0; t < h.tpc; t++ {
			marks[t] = l1.marks(w, t)
		}
		if marks != [MaxSMT]MarkMasks{} {
			h.MarkedDrops++
		}
	}
	l2 := h.l2[l1.sock]
	l2.dirEntry(l2.base(addr) + int(w.l2way)).clear(l1.bit)
	w.invalidate()
	switch reason {
	case DropEvict:
		h.Evictions++
	case DropInvalidate:
		h.Invalidations++
	case DropBackInvalidate:
		h.BackInvalidations++
	}
	for t := 0; t < h.tpc; t++ {
		thread := l1.id<<h.tpcShift + t
		for _, l := range h.dropListeners {
			l.LineDropped(thread, addr, marks[t], reason, byThread)
		}
	}
}

// siblingStore clears the other SMT threads' marks on a line the storing
// thread just wrote; the line stays resident for them (same L1), but the
// marks — and for a hardware transaction, the tracked line — are gone.
// Every sibling is notified, marked or not: an HTM sibling tracks unmarked
// lines too.
func (h *Hierarchy) siblingStore(l1 *level, thread int, w *line) {
	if h.tpc == 1 {
		return
	}
	for t := 0; t < h.tpc; t++ {
		sib := l1.id<<h.tpcShift + t
		if sib == thread {
			continue
		}
		mark := l1.marks(w, t)
		if mark.Any() {
			w.mark[t] = MarkMasks{}
			h.MarkedDrops++
		}
		for _, l := range h.dropListeners {
			l.LineDropped(sib, w.tag, mark, DropSiblingStore, thread)
		}
	}
}

// AccessResult reports where an access hit.
type AccessResult struct {
	L1Hit bool
	L2Hit bool // local-socket L2 hit; meaningful only when !L1Hit
	// RemoteL2 marks a miss another socket's L2 served (clean or dirty);
	// never set on a 1-socket machine. When it is false and the access
	// missed both L1 and the local L2, memory served the line.
	RemoteL2 bool
	// RemoteDirty marks a RemoteL2 transfer sourced from a line a remote
	// core held modified (dirty-remote fetch, the most expensive hop).
	RemoteDirty bool
}

// Access simulates core's load or store of the line containing addr,
// updating residency, coherence and inclusion. It returns where the access
// hit so the caller can charge latency.
func (h *Hierarchy) Access(thread int, addr uint64, write bool) AccessResult {
	la := mem.LineAddr(addr)
	l1 := h.l1Of(thread)
	i := l1.find(la)
	if i < 0 {
		return h.miss(l1, thread, la, write)
	}
	w := &l1.ways[i]
	l1.touch(w)
	h.L1Hits++
	if !write {
		h.notifyRemoteRead(thread, la)
		return AccessResult{L1Hit: true}
	}
	if w.st != modified {
		// Upgrade: invalidate every other copy in the machine.
		h.invalidateOthers(l1, thread, la, h.l2[l1.sock].base(la)+int(w.l2way))
		w.st = modified
	}
	h.siblingStore(l1, thread, w)
	return AccessResult{L1Hit: true}
}

// miss is Access for a line l1 does not hold.
func (h *Hierarchy) miss(l1 *level, thread int, la uint64, write bool) AccessResult {
	h.L1Misses++
	res := AccessResult{}
	l2 := h.l2[l1.sock]
	// The one probe of the local L2 set; nothing below moves the line
	// between ways before fillL1 records it.
	w2 := l2.find(la)

	remoteDirty := false
	if !write {
		// A read miss downgrades any remote Modified copy to Shared so the
		// old owner's next store is forced to re-invalidate us. The
		// directory walk visits actual sharers in ascending group order —
		// the same copies, in the same order, the broadcast snoop scanned.
		remoteDirty = h.downgradeModified(l1, la, w2)
	}

	// Ensure the line is in the local socket's L2 (inclusive).
	if w2 >= 0 {
		l2.touch(&l2.ways[w2])
		h.L2Hits++
		res.L2Hit = true
	} else {
		h.L2Misses++
		if h.sockets > 1 {
			h.probeRemote(l1.sock, la, write, remoteDirty, &res)
		}
		w2 = h.fillL2(l2, la)
	}

	h.fillL1(l1, thread, la, write, w2)
	if !write {
		h.notifyRemoteRead(thread, la)
	}

	if h.prefetch {
		// Next-line prefetcher, the §7.4 interference source ("prefetches
		// and speculative accesses from one core kick out marked cache
		// lines from another core"). Loads prefetch the next two lines for
		// reading; stores issue a read-for-ownership prefetch of the next
		// line, which — like the demand store — invalidates every other
		// core's copy, marked or not. Prefetches consume no requester
		// latency; their cost is pure pollution.
		degree := uint64(2)
		if write {
			degree = 1
		}
		for d := uint64(1); d <= degree; d++ {
			next := la + d*mem.LineSize
			n2 := l2.find(next)
			if write {
				h.invalidateOthers(l1, thread, next, n2)
			}
			if w := l1.lookup(next); w != nil {
				if write {
					w.st = modified
				}
				continue
			}
			if n2 < 0 {
				n2 = h.fillL2(l2, next)
			}
			h.fillL1(l1, thread, next, write, n2)
			h.PrefetchFills++
		}
	}
	return res
}

// downgradeModified walks every socket's directory entry for la and
// downgrades a Modified copy to Shared, returning whether that copy lived
// on a different socket than the accessor (a dirty-remote source). local
// is la's way in the accessor's L2, or -1.
func (h *Hierarchy) downgradeModified(l1 *level, la uint64, local int) bool {
	remoteDirty := false
	for s, l2 := range h.l2 {
		i := local
		if s != l1.sock {
			i = l2.find(la)
		}
		if i < 0 {
			continue
		}
		for wi, word := range l2.dirEntry(i) {
			for word != 0 {
				g := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				grp := s*h.gps + g
				if grp == l1.id {
					continue
				}
				if w := h.l1[grp].lookup(la); w != nil && w.st == modified {
					w.st = shared
					if s != l1.sock {
						remoteDirty = true
					}
				}
			}
		}
	}
	return remoteDirty
}

// probeRemote resolves a local-L2 miss against the other sockets: if any
// remote L2 holds the line the transfer is cross-socket (dirty when a
// remote core holds — or, for a read, just held — the line modified), else
// the miss falls through to memory. Counters land on the accessor's
// socket; the remote copies themselves are left alone (a write invalidates
// them moments later through invalidateOthers).
func (h *Hierarchy) probeRemote(ownSock int, la uint64, write, readSawDirty bool, res *AccessResult) {
	for s, l2 := range h.l2 {
		if s == ownSock {
			continue
		}
		i := l2.find(la)
		if i < 0 {
			continue
		}
		res.RemoteL2 = true
		dirty := readSawDirty
		if write && !dirty {
			for wi, word := range l2.dirEntry(i) {
				for word != 0 {
					g := wi<<6 + bits.TrailingZeros64(word)
					word &= word - 1
					if w := h.l1[s*h.gps+g].lookup(la); w != nil && w.st == modified {
						dirty = true
					}
				}
			}
		}
		res.RemoteDirty = dirty
		sc := &h.Socket[ownSock]
		sc.CrossSocketMisses++
		if dirty {
			sc.RemoteDirtyFetches++
		}
		return
	}
}

// fillL1 installs la into l1, evicting as needed and invalidating other
// copies when the fill is for a write. New fills always start with a clear
// mark mask ("when the processor brings a line into the cache, it clears
// all the mark bits for the new line"). l2i is la's way in the socket's L2:
// the line records it, and its directory entry gains the group's sharer
// bit.
func (h *Hierarchy) fillL1(l1 *level, thread int, la uint64, write bool, l2i int) {
	v := &l1.ways[l1.victim(la)]
	h.drop(l1, v, DropEvict, thread)
	if write {
		h.invalidateOthers(l1, thread, la, l2i)
	}
	v.tag = la
	v.mark = [MaxSMT]MarkMasks{}
	if write {
		v.st = modified
	} else {
		v.st = shared
	}
	l2 := h.l2[l1.sock]
	v.l2way = uint8(l2i & (l2.assoc - 1))
	l1.touch(v)
	l2.dirEntry(l2i).set(l1.bit)
}

// fillL2 installs la into l2 and returns the way it filled; the victim, if
// any, is back-invalidated out of the socket's L1s — exactly the sharers
// its directory entry names — to preserve inclusion.
func (h *Hierarchy) fillL2(l2 *level, la uint64) int {
	vi := l2.victim(la)
	v, vm := &l2.ways[vi], l2.dirEntry(vi)
	if v.st != invalid {
		evicted := v.tag
		for wi, word := range vm {
			for word != 0 {
				g := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				l1 := h.l1[l2.sock*h.gps+g]
				if w := l1.lookup(evicted); w != nil {
					h.drop(l1, w, DropBackInvalidate, -1)
				}
			}
		}
	}
	v.tag = la
	v.st = shared
	clear(vm)
	l2.touch(v)
	return vi
}

// SpeculativeRFO models a wrong-path / predicted-store read-for-ownership
// request from core: every other core's copy of the line is invalidated
// (discarding its mark bits), exactly the "speculative accesses from one
// core kick out marked cache lines from another core" interference of
// §7.4. The requesting core gains nothing; the request is off its critical
// path.
func (h *Hierarchy) SpeculativeRFO(thread int, lineAddr uint64) {
	l1 := h.l1Of(thread)
	h.invalidateOthers(l1, thread, lineAddr, h.l2[l1.sock].find(lineAddr))
}

// EvictLine forces the line containing addr out of the thread's L1, as a
// set-pressure capacity eviction would, and reports whether a resident
// line was actually dropped. The L2 copy survives (a forced L1 eviction
// models associativity pressure, not data loss), so a re-access hits L2.
// Fault injection uses this to exercise mark-bit loss at chosen points.
func (h *Hierarchy) EvictLine(thread int, addr uint64) bool {
	l1 := h.l1Of(thread)
	w := l1.lookup(mem.LineAddr(addr))
	if w == nil {
		return false
	}
	h.drop(l1, w, DropEvict, thread)
	return true
}

// BackInvalidateLine forces the line containing addr out of every socket's
// L2 and — by inclusion — out of every sharing L1, exactly what an L2
// victimisation does ("one core accidentally kicking out marked cache
// lines of another core", §7.4), and returns how many L1 copies were
// dropped. Fault injection uses this as an on-demand snoop/back-
// invalidation.
func (h *Hierarchy) BackInvalidateLine(addr uint64) int {
	la := mem.LineAddr(addr)
	n := 0
	for s, l2 := range h.l2 {
		i := l2.find(la)
		if i < 0 {
			continue
		}
		m := l2.dirEntry(i)
		for wi, word := range m {
			for word != 0 {
				g := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				l1 := h.l1[s*h.gps+g]
				if w := l1.lookup(la); w != nil {
					h.drop(l1, w, DropBackInvalidate, -1)
					n++
				}
			}
		}
		l2.ways[i].invalidate()
		clear(m)
	}
	return n
}

// invalidateOthers removes la from every L1 except the writer's, walking
// directory sharer sets instead of probing each L1: the writer's own
// socket drops exactly its sharers (ascending group order — the broadcast
// snoop's order), and any other socket holding the line drops its sharers
// and gives up its L2 copy (exclusive ownership moves to the writer's
// socket). local is la's way in the writer's L2, or -1.
func (h *Hierarchy) invalidateOthers(l1 *level, writer int, la uint64, local int) {
	sock := l1.sock
	if local >= 0 {
		for wi, word := range h.l2[sock].dirEntry(local) {
			for word != 0 {
				g := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				other := h.l1[sock*h.gps+g]
				if other == l1 {
					continue
				}
				if w := other.lookup(la); w != nil {
					h.drop(other, w, DropInvalidate, writer)
				}
			}
		}
	}
	if h.sockets == 1 {
		return
	}
	sc := &h.Socket[sock]
	for s, l2 := range h.l2 {
		if s == sock {
			continue
		}
		i := l2.find(la)
		if i < 0 {
			continue
		}
		m := l2.dirEntry(i)
		for wi, word := range m {
			for word != 0 {
				g := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				other := h.l1[s*h.gps+g]
				if w := other.lookup(la); w != nil {
					h.drop(other, w, DropInvalidate, writer)
					sc.DirectoryInvalidations++
				}
			}
		}
		l2.ways[i].invalidate()
		clear(m)
		sc.DirectoryInvalidations++
	}
}

func (h *Hierarchy) notifyRemoteRead(reader int, la uint64) {
	for _, l := range h.readListeners {
		l.LineRead(reader, la)
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

// SetMark sets plane's mark bits covering [addr, addr+size) in core's L1.
// The line must be resident (the caller performs the access first); if it
// is not — which cannot happen when called right after Access — this is a
// no-op, matching hardware that simply loses the mark.
func (h *Hierarchy) SetMark(thread, plane int, addr, size uint64) {
	l1 := h.l1Of(thread)
	if w := l1.lookup(mem.LineAddr(addr)); w != nil {
		slot := h.slotOf(thread)
		b, e := &w.mark[slot][plane], l1.epoch[slot][plane]
		if *b&epochBits != e {
			*b = e
		}
		*b |= markSpan(addr, size)
	}
}

// ClearMark clears plane's mark bits covering [addr, addr+size).
func (h *Hierarchy) ClearMark(thread, plane int, addr, size uint64) {
	l1 := h.l1Of(thread)
	if w := l1.lookup(mem.LineAddr(addr)); w != nil {
		slot := h.slotOf(thread)
		if b := &w.mark[slot][plane]; *b&epochBits == l1.epoch[slot][plane] {
			*b &^= markSpan(addr, size)
		}
	}
}

// TestMark reports whether ALL of plane's mark bits covering
// [addr, addr+size) are set (the instruction puts the logical AND of the
// covered bits in the carry flag).
func (h *Hierarchy) TestMark(thread, plane int, addr, size uint64) bool {
	l1 := h.l1Of(thread)
	w := l1.lookup(mem.LineAddr(addr))
	if w == nil {
		return false
	}
	span := markSpan(addr, size)
	return l1.marks(w, h.slotOf(thread))[plane]&span == span
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
	ways := l1.ways
	for i := range ways {
		ways[i].mark[slot][plane] = 0
	}
}

// MarkedLines returns how many lines currently carry at least one mark bit
// of the plane in core's L1 (useful for tests and diagnostics).
func (h *Hierarchy) MarkedLines(thread, plane int) int {
	l1, slot := h.l1Of(thread), h.slotOf(thread)
	n := 0
	for i := range l1.ways {
		if w := &l1.ways[i]; w.st != invalid && l1.marks(w, slot)[plane] != 0 {
			n++
		}
	}
	return n
}

// Resident reports whether the line containing addr is in the thread's L1.
func (h *Hierarchy) Resident(thread int, addr uint64) bool {
	return h.l1Of(thread).lookup(mem.LineAddr(addr)) != nil
}

// FlushCore invalidates every line in the thread's L1 (used to model a
// context switch wiping the cache in some experiments). Marked drops are
// reported as evictions.
func (h *Hierarchy) FlushCore(thread int) {
	l1 := h.l1Of(thread)
	for i := range l1.ways {
		h.drop(l1, &l1.ways[i], DropEvict, thread)
	}
}
