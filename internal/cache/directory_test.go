package cache

import (
	"errors"
	"strings"
	"testing"

	"hastm.dev/hastm/internal/mem"
)

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
	h := testHierarchy(8)
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

// TestCleanRemoteFetch pins the clean read of a line another core holds:
// the L2 serves the miss and both copies stay resident.
func TestCleanRemoteFetch(t *testing.T) {
	h := testHierarchy(4)
	h.Access(0, base, false)
	if res := h.Access(2, base, false); res.L1Hit || !res.L2Hit {
		t.Errorf("clean fetch: got %+v, want an L2 hit", res)
	}
	if !h.Resident(0, base) || !h.Resident(2, base) {
		t.Error("clean read must leave both copies resident")
	}
}

// TestRemoteReadDowngradesModified pins the read of a line another core
// holds modified: the L2 serves it, the owner's copy is downgraded to
// shared, not dropped, and a subsequent write by its owner re-invalidates
// the reader.
func TestRemoteReadDowngradesModified(t *testing.T) {
	h := testHierarchy(4)
	h.Access(0, base, true)
	if res := h.Access(2, base, false); res.L1Hit || !res.L2Hit {
		t.Fatalf("read of another core's modified line: got %+v, want an L2 hit", res)
	}
	if !h.Resident(0, base) {
		t.Fatal("downgrade must keep the former owner's copy (shared)")
	}
	h.Access(0, base, true) // upgrade again
	if h.Resident(2, base) {
		t.Fatal("reader's copy must be invalidated by the owner's re-write")
	}
}

// TestInvalidationProbesOnlySharers holds every sharer walk to the line's
// sharers: cores 2i and 2i+1 ping-pong line i (the odd core loads what the
// even core stores), so every store finds one sharer to invalidate and
// every load after the first round one owner to downgrade, and each looks
// up exactly one other L1 — at 16 cores as at 64 and 256. A walk of every
// L1, or a stale sharer bit, would look up more: lookups are counted
// before the tag match, found or not.
func TestInvalidationProbesOnlySharers(t *testing.T) {
	for _, cores := range []int{16, 64, 256} {
		h := New(HierarchyConfig{
			Cores: cores,
			L1:    Config{SizeBytes: 32 << 10, Assoc: 8},
			L2:    Config{SizeBytes: 512 << 10, Assoc: 8},
		})
		pairs := cores / 2
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
			t.Errorf("%d cores: %d stores made %d L1 lookups and %d invalidations, want one each per store",
				cores, stores, storeProbes, h.Invalidations)
		}
		if want := uint64((rounds - 1) * pairs); loadProbes != want {
			t.Errorf("%d cores: loads made %d L1 lookups, want %d (one per load of a Modified line)",
				cores, loadProbes, want)
		}
	}
}

// The hierarchy's own checks: an L2 of bad geometry, no hardware threads,
// more SMT threads than an L1 serves, and more groups than the directory
// names.
func TestHierarchyValidateRejects(t *testing.T) {
	l1, l2 := Config{SizeBytes: 4 << 10, Assoc: 4}, Config{SizeBytes: 64 << 10, Assoc: 8}
	for _, c := range []struct {
		cfg  HierarchyConfig
		want string
	}{
		{HierarchyConfig{Cores: 1, L1: l1, L2: Config{SizeBytes: 3 << 10, Assoc: 2}}, "L2:"},
		{HierarchyConfig{L1: l1, L2: l2}, "at least one hardware thread"},
		{HierarchyConfig{Cores: 4, ThreadsPerCore: MaxSMT + 1, L1: l1, L2: l2}, "exceeds MaxSMT"},
		{HierarchyConfig{Cores: MaxGroups + 1, L1: l1, L2: l2}, "exceeds the"},
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
