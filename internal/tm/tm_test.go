package tm

import (
	"testing"

	"hastm.dev/hastm/internal/sim"
)

func TestGranularityStrings(t *testing.T) {
	if ObjectGranularity.String() != "object" || LineGranularity.String() != "cache-line" {
		t.Fatal("granularity strings wrong")
	}
}

func TestBackoffGrowsAndResets(t *testing.T) {
	m := sim.New(sim.DefaultConfig(1))
	var waits []uint64
	m.Run(func(c *sim.Ctx) {
		b := NewBackoff(c.ID())
		prev := c.Clock()
		for i := 0; i < 6; i++ {
			b.Wait(c)
			waits = append(waits, c.Clock()-prev)
			prev = c.Clock()
		}
		b.Reset()
		b.Wait(c)
		waits = append(waits, c.Clock()-prev)
	})
	// The expected wait grows with the attempt; compare first and fifth.
	if waits[5] <= waits[0] {
		t.Fatalf("backoff did not grow: %v", waits)
	}
	// After Reset the window shrinks back near the start.
	if waits[6] > waits[5] {
		t.Fatalf("backoff did not reset: %v", waits)
	}
}

func TestBackoffDeterministicPerCore(t *testing.T) {
	run := func() []uint64 {
		m := sim.New(sim.DefaultConfig(1))
		var seq []uint64
		m.Run(func(c *sim.Ctx) {
			b := NewBackoff(3)
			prev := c.Clock()
			for i := 0; i < 4; i++ {
				b.Wait(c)
				seq = append(seq, c.Clock()-prev)
				prev = c.Clock()
			}
		})
		return seq
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic backoff: %v vs %v", a, b)
		}
	}
}

func TestBackoffDiffersAcrossCores(t *testing.T) {
	seqFor := func(core int) []uint64 {
		m := sim.New(sim.DefaultConfig(1))
		var seq []uint64
		m.Run(func(c *sim.Ctx) {
			b := NewBackoff(core)
			prev := c.Clock()
			for i := 0; i < 4; i++ {
				b.Wait(c)
				seq = append(seq, c.Clock()-prev)
				prev = c.Clock()
			}
		})
		return seq
	}
	a, b := seqFor(0), seqFor(1)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different cores produced identical jitter; contention would lockstep")
	}
}

// The splitmix finalizer maps 0, and only 0, to 0, so exactly one core
// number — 2654435761·core + 1 ≡ 0 (mod 2^64) — would seed xorshift with
// the zero state it can never leave; that core gets state 1 instead.
func TestBackoffSeedNeverZero(t *testing.T) {
	inv := uint64(2654435761) // Newton's iteration for the inverse mod 2^64
	for i := 0; i < 5; i++ {
		inv *= 2 - 2654435761*inv
	}
	core := int(-inv) // 2654435761·core = -1
	if b := NewBackoff(core); b.rng != 1 {
		t.Errorf("NewBackoff(%d).rng = %#x, want 1", core, b.rng)
	}
}
