package service

import (
	"math"
	"strings"
	"testing"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/workloads"
)

func mustPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one mentioning %q", substr)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v does not mention %q", r, substr)
		}
	}()
	f()
}

// A one-account bank used to survive the constructor and then divide by
// zero — Intn(Keys-1) — the first time Classify drew a transfer. The
// constructor must reject it up front.
func TestBankRejectsSingleAccountTransfers(t *testing.T) {
	mustPanic(t, "need Keys >= 2", func() {
		NewBank(mem.New(), BankConfig{Keys: 1, Slots: 8})
	})
	mustPanic(t, "zero accounts", func() {
		NewBank(mem.New(), BankConfig{Keys: 0, Slots: 8})
	})
	// Two accounts host transfers fine.
	b := NewBank(mem.New(), BankConfig{Keys: 2, Slots: 16})
	if b.KeySpace() != 2 {
		t.Fatalf("KeySpace = %d", b.KeySpace())
	}
}

// drawGap invariants: the draw is uniform on [mean−⌊mean/2⌋, mean+⌊mean/2⌋].
// For means so large that mean+⌊mean/2⌋ exceeds uint64 the sum wraps (as
// it always has); what the rewrite guarantees there is no Intn(0) crash —
// the old mean+1 width overflowed to zero at mean == MaxUint64.
func TestDrawGapBounds(t *testing.T) {
	for _, mean := range []uint64{1, 2, 3, 7, 8, 1023, 1024, math.MaxUint64 - 1, math.MaxUint64} {
		low := mean - mean/2
		high, wraps := mean+mean/2, mean/2 > math.MaxUint64-mean
		r := workloads.NewRand(42)
		var min, max uint64 = math.MaxUint64, 0
		for i := 0; i < 2000; i++ {
			g := drawGap(r, mean) // must not panic for any mean
			if !wraps && (g < low || g > high) {
				t.Fatalf("mean %d: draw %d outside [%d, %d]", mean, g, low, high)
			}
			if g < min {
				min = g
			}
			if g > max {
				max = g
			}
		}
		// The support's endpoints are reachable (for small widths the 2000
		// draws certainly hit them; for the huge means just the bound check
		// above matters).
		if mean <= 1024 && (min != low || max != high) {
			t.Errorf("mean %d: observed range [%d, %d], want the full support [%d, %d]", mean, min, max, low, high)
		}
	}
	if got := drawGap(workloads.NewRand(1), 0); got != 0 {
		t.Errorf("drawGap(0) = %d, want 0 (saturation)", got)
	}
	// mean 1 is degenerate: ⌊1/2⌋ = 0, so the draw is exactly 1 — the old
	// formula drew from {0, 1} for a true mean of 0.5.
	r := workloads.NewRand(7)
	for i := 0; i < 100; i++ {
		if got := drawGap(r, 1); got != 1 {
			t.Fatalf("drawGap(1) = %d, want exactly 1", got)
		}
	}
}

// For even means the rewritten drawGap is the historical draw, bit for
// bit: same lower bound, same Intn argument, same generator consumption —
// the property that keeps every existing even-gap figure cell
// byte-identical.
func TestDrawGapEvenMeanByteIdentical(t *testing.T) {
	for _, mean := range []uint64{2, 8, 100, 1024, 65536} {
		a, b := workloads.NewRand(99), workloads.NewRand(99)
		for i := 0; i < 500; i++ {
			got := drawGap(a, mean)
			want := mean/2 + b.Intn(mean+1) // the historical formula
			if got != want {
				t.Fatalf("mean %d draw %d: drawGap = %d, historical = %d", mean, i, got, want)
			}
		}
	}
}

// For odd means the interval is symmetric about mean, so the expected
// value is exactly mean — the old [⌊mean/2⌋, mean+⌊mean/2⌋+…] draw via
// Intn(mean+1) was centred half a cycle low.
func TestDrawGapOddMeanUnbiased(t *testing.T) {
	const mean = 101 // support [51, 151], width 101
	r := workloads.NewRand(5)
	counts := make(map[uint64]int)
	const draws = 101 * 200
	var sum uint64
	for i := 0; i < draws; i++ {
		g := drawGap(r, mean)
		counts[g]++
		sum += g
	}
	if len(counts) != 101 {
		t.Fatalf("support size %d, want 101", len(counts))
	}
	avg := float64(sum) / draws
	if math.Abs(avg-mean) > 0.5 {
		t.Errorf("empirical mean %.3f, want %d ± 0.5", avg, mean)
	}
}
