package cache

import (
	"errors"
	"strings"
	"testing"

	"hastm.dev/hastm/internal/mem"
)

// numaHierarchy builds a small multi-socket hierarchy: `sockets` sockets ×
// `perSocket` cores, tiny levels so eviction paths are reachable.
func numaHierarchy(sockets, perSocket int) *Hierarchy {
	return New(HierarchyConfig{
		Cores:   sockets * perSocket,
		Sockets: sockets,
		L1:      Config{SizeBytes: 1 << 10, Assoc: 2},
		L2:      Config{SizeBytes: 4 << 10, Assoc: 4},
	})
}

// TestValidateNamedError pins the satellite requirement: a non-power-of-two
// geometry is rejected with an error that errors.Is-matches ErrBadGeometry,
// at every entry point (Config.Validate, HierarchyConfig.Validate, and the
// Sets panic path the masked set-index lookup depends on).
func TestValidateNamedError(t *testing.T) {
	bad := []Config{
		{SizeBytes: 3 << 10, Assoc: 2},              // 24 sets
		{SizeBytes: 32 << 10, Assoc: 3},             // non-power-of-two ways
		{SizeBytes: 0, Assoc: 8},                    // zero sets
		{SizeBytes: 100, Assoc: 1},                  // not a multiple of the line size
		{SizeBytes: 512 * mem.LineSize, Assoc: 512}, // more ways than an L1 line can record
	}
	for _, cfg := range bad {
		err := cfg.Validate()
		if err == nil {
			t.Errorf("Config%+v.Validate() accepted bad geometry", cfg)
			continue
		}
		if !errors.Is(err, ErrBadGeometry) {
			t.Errorf("Config%+v.Validate() = %v; want errors.Is ErrBadGeometry", cfg, err)
		}
		herr := HierarchyConfig{Cores: 1, L1: cfg, L2: Config{SizeBytes: 4 << 10, Assoc: 4}}.Validate()
		if !errors.Is(herr, ErrBadGeometry) {
			t.Errorf("HierarchyConfig.Validate() = %v; want errors.Is ErrBadGeometry", herr)
		}
	}
	if err := (Config{SizeBytes: 32 << 10, Assoc: 8}).Validate(); err != nil {
		t.Errorf("good geometry rejected: %v", err)
	}
}

// TestDirectorySharerPrecision pins the directory's reason for existing:
// a write invalidates exactly the lines the directory says are shared —
// sharer count, not core count — and the directory bits are cleared again
// on drop so later writes send no stale invalidations.
func TestDirectorySharerPrecision(t *testing.T) {
	h := numaHierarchy(1, 8)
	rec := &dropRecorder{}
	h.AddDropListener(rec)
	// Cores 2 and 5 share the line; cores 0..7 exist.
	h.Access(2, base, false)
	h.Access(5, base, false)
	h.Access(3, base, true) // writer
	if len(rec.events) != 2 {
		t.Fatalf("want exactly 2 drop events (the 2 sharers), got %d: %+v", len(rec.events), rec.events)
	}
	if rec.events[0].core != 2 || rec.events[1].core != 5 {
		t.Fatalf("drops must walk sharers in ascending core order, got %+v", rec.events)
	}
	// The invalidated sharers' directory bits must be gone: a second write
	// by core 3 (L1 hit, modified) must invalidate nothing.
	rec.events = nil
	h.Access(3, base, true)
	if len(rec.events) != 0 {
		t.Fatalf("re-write after invalidation dropped stale sharers: %+v", rec.events)
	}
}

// TestCrossSocketWriteMigratesOwnership pins the multi-socket write path:
// a remote write drops every remote L1 copy, invalidates the remote L2
// line (ownership moves to the writer's socket), and counts one directory
// invalidation per message.
func TestCrossSocketWriteMigratesOwnership(t *testing.T) {
	h := numaHierarchy(2, 2)
	// Cores 0,1 = socket 0; cores 2,3 = socket 1.
	h.Access(0, base, false)
	h.Access(1, base, false)
	h.Access(2, base, true) // socket-1 write
	if h.Resident(0, base) || h.Resident(1, base) {
		t.Fatal("socket-0 sharers must be invalidated by the remote write")
	}
	// 2 L1 drops + 1 remote L2 invalidation, attributed to the writer's
	// socket (1).
	if got := h.Socket[1].DirectoryInvalidations; got != 3 {
		t.Errorf("writer socket invalidation count = %d, want 3 (2 L1 + 1 L2)", got)
	}
	if got := h.Socket[0].DirectoryInvalidations; got != 0 {
		t.Errorf("victim socket charged %d invalidations, want 0", got)
	}
	// Socket 0 re-reads: the line now lives only in socket 1, so the miss
	// is cross-socket and dirty (core 2 holds it modified).
	res := h.Access(0, base, false)
	if !res.RemoteL2 || !res.RemoteDirty {
		t.Errorf("re-read after remote write: got %+v, want RemoteL2+RemoteDirty", res)
	}
	if h.Socket[0].CrossSocketMisses == 0 || h.Socket[0].RemoteDirtyFetches == 0 {
		t.Errorf("accessor socket counters not charged: %+v", h.Socket[0])
	}
}

// TestCleanRemoteFetch pins the clean cross-socket read: a remote L2 copy
// serves the miss (RemoteL2, not RemoteDirty) and both sockets end up
// sharing the line.
func TestCleanRemoteFetch(t *testing.T) {
	h := numaHierarchy(2, 2)
	h.Access(0, base, false) // socket 0, clean
	res := h.Access(2, base, false)
	if !res.RemoteL2 || res.RemoteDirty {
		t.Errorf("clean remote fetch: got %+v, want RemoteL2 only", res)
	}
	if !h.Resident(0, base) || !h.Resident(2, base) {
		t.Error("clean read must leave both sockets' copies resident")
	}
	if h.Socket[0].CrossSocketMisses != 0 {
		t.Errorf("socket 0 charged for socket 1's miss: %+v", h.Socket[0])
	}
}

// TestRemoteReadDowngradesModified pins the dirty-remote read: the remote
// modified copy is downgraded to shared, not dropped, and a subsequent
// write by its owner re-invalidates the reader.
func TestRemoteReadDowngradesModified(t *testing.T) {
	h := numaHierarchy(2, 2)
	h.Access(0, base, true) // socket 0, modified
	res := h.Access(2, base, false)
	if !res.RemoteDirty {
		t.Fatalf("read of remote modified line: got %+v, want RemoteDirty", res)
	}
	if !h.Resident(0, base) {
		t.Fatal("downgrade must keep the former owner's copy (shared)")
	}
	h.Access(0, base, true) // upgrade again
	if h.Resident(2, base) {
		t.Fatal("reader's copy must be invalidated by the owner's re-write")
	}
}

// TestRemotePrefetchIsNoCrossSocketMiss pins what the socket counters
// count: demand misses. Core 2's read prefetches pull X and X+64 out of
// socket 0, where core 0 holds both Modified; they downgrade the owner as
// a demand read would, but charge no latency and count in neither
// CrossSocketMisses nor RemoteDirtyFetches. A demand read of a line core 0
// still owns counts in both.
func TestRemotePrefetchIsNoCrossSocketMiss(t *testing.T) {
	h := New(HierarchyConfig{
		Cores:    4,
		Sockets:  2,
		L1:       Config{SizeBytes: 1 << 10, Assoc: 2},
		L2:       Config{SizeBytes: 4 << 10, Assoc: 4},
		Prefetch: true,
	})
	x := base + 4*mem.LineSize
	h.Access(0, x, true) // X Modified; the write prefetch owns X+64
	h.Access(0, x+3*mem.LineSize, true)
	h.Access(2, x-mem.LineSize, false) // from memory; prefetches X, X+64
	for _, a := range []uint64{x, x + mem.LineSize} {
		if !h.Resident(2, a) {
			t.Fatalf("core 2's read prefetch did not fill %#x", a)
		}
		if l1 := &h.l1[0]; l1.state[l1.find(lineOf(a))].st != shared {
			t.Fatalf("the remote read prefetch left core 0's copy of %#x Modified", a)
		}
	}
	if s := h.Socket[1]; s.CrossSocketMisses != 0 || s.RemoteDirtyFetches != 0 {
		t.Fatalf("prefetches counted as cross-socket misses: %+v", s)
	}
	if res := h.Access(2, x+3*mem.LineSize, false); !res.RemoteDirty {
		t.Fatalf("demand read of core 0's Modified line: got %+v, want RemoteDirty", res)
	}
	if s := h.Socket[1]; s.CrossSocketMisses != 1 || s.RemoteDirtyFetches != 1 {
		t.Fatalf("one dirty demand miss counted %+v, want one of each", s)
	}
	checkDirectory(t, h)
}

// TestSocketOfLayout pins the thread→socket mapping (contiguous blocks of
// CoresPerSocket threads, honouring SMT grouping).
func TestSocketOfLayout(t *testing.T) {
	h := numaHierarchy(4, 4)
	for th := 0; th < 16; th++ {
		if got, want := h.SocketOf(th), th/4; got != want {
			t.Errorf("SocketOf(%d) = %d, want %d", th, got, want)
		}
	}
	if h.NumSockets() != 4 {
		t.Errorf("NumSockets = %d, want 4", h.NumSockets())
	}
}

// TestFlatHierarchyNoSocketTraffic pins the structural-zero guarantee used
// by the JSON layer: single-socket hierarchies never touch the NUMA
// counters even under heavy invalidation traffic.
func TestFlatHierarchyNoSocketTraffic(t *testing.T) {
	h := testHierarchy(4)
	for i := 0; i < 64; i++ {
		for c := 0; c < 4; c++ {
			h.Access(c, base+uint64(i%8)*mem.LineSize, i%2 == 0)
		}
	}
	for i, s := range h.Socket {
		if s != (SocketCounters{}) {
			t.Errorf("flat hierarchy socket %d counters nonzero: %+v", i, s)
		}
	}
}

// TestInvalidationProbesOnlySharers holds every sharer walk to the line's
// sharers: cores 2i and 2i+1 ping-pong line i (the odd core loads what the
// even core stores), so every store finds one sharer to invalidate and
// every load after the first round one owner to downgrade, and each looks
// up exactly one other L1 — at 16 cores on one socket as at 4×16 and 4×64.
// A walk of every L1 in the socket, or a stale sharer bit, would look up
// more: lookups are counted before the tag match, found or not.
func TestInvalidationProbesOnlySharers(t *testing.T) {
	for _, tc := range []struct{ sockets, perSocket int }{{1, 16}, {4, 16}, {4, 64}} {
		h := New(HierarchyConfig{
			Cores:   tc.sockets * tc.perSocket,
			Sockets: tc.sockets,
			L1:      Config{SizeBytes: 32 << 10, Assoc: 8},
			L2:      Config{SizeBytes: 512 << 10, Assoc: 8},
		})
		pairs := tc.sockets * tc.perSocket / 2
		const rounds = 8
		var loadProbes, storeProbes uint64
		for r := 0; r < rounds; r++ {
			for p := 0; p < pairs; p++ {
				a := base + uint64(p)*mem.LineSize
				n := h.sharerProbes
				h.Access(2*p+1, a, false)
				loadProbes += h.sharerProbes - n
				n = h.sharerProbes
				h.Access(2*p, a, true)
				storeProbes += h.sharerProbes - n
			}
		}
		stores := uint64(rounds * pairs)
		if storeProbes != stores || h.Invalidations != stores {
			t.Errorf("%dx%d: %d stores made %d L1 lookups and %d invalidations, want one each per store",
				tc.sockets, tc.perSocket, stores, storeProbes, h.Invalidations)
		}
		if want := uint64((rounds - 1) * pairs); loadProbes != want {
			t.Errorf("%dx%d: loads made %d L1 lookups, want %d (one per load of a Modified line)",
				tc.sockets, tc.perSocket, loadProbes, want)
		}
	}
}

// The hierarchy's own checks: an L2 of bad geometry, no hardware threads,
// more SMT threads than an L1 serves, L1 groups that do not split over the
// sockets, and more groups per socket than the directory names.
func TestHierarchyValidateRejects(t *testing.T) {
	l1, l2 := Config{SizeBytes: 4 << 10, Assoc: 4}, Config{SizeBytes: 64 << 10, Assoc: 8}
	for _, c := range []struct {
		cfg  HierarchyConfig
		want string
	}{
		{HierarchyConfig{Cores: 1, L1: l1, L2: Config{SizeBytes: 3 << 10, Assoc: 2}}, "L2:"},
		{HierarchyConfig{L1: l1, L2: l2}, "at least one hardware thread"},
		{HierarchyConfig{Cores: 4, ThreadsPerCore: MaxSMT + 1, L1: l1, L2: l2}, "exceeds MaxSMT"},
		{HierarchyConfig{Cores: 3, Sockets: 2, L1: l1, L2: l2}, "do not split evenly"},
		{HierarchyConfig{Cores: MaxGroupsPerSocket + 1, L1: l1, L2: l2}, "exceeds the"},
	} {
		if err := c.cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %v, want %q", c.cfg, err, c.want)
		}
	}
}

// A zero granularity marks what granularity 1 marks: the touched
// sub-block, never an empty span.
func TestMarkSpanZeroGranularity(t *testing.T) {
	for _, addr := range []uint64{0, 24, 63} {
		if got, want := markSpan(addr, 0), markSpan(addr, 1); got != want || got == 0 {
			t.Errorf("markSpan(%d, 0) = %04b, want %04b", addr, got, want)
		}
	}
}
