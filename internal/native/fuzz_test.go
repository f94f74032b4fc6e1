package native

import (
	"testing"
	"time"
)

// ParseChaosSpec returns an error or a spec, never panics, and the spec's
// canonical rendering is a fixed point: it parses to a spec that renders
// the same and survives a further round trip unchanged. (String leaves out
// what a disabled kind makes irrelevant — a duration without its rate, a
// seed with nothing armed — so the first parse need not equal the input.)
func FuzzParseChaosSpec(f *testing.F) {
	for _, seed := range []string{
		"off", "", // TestChaosSpecParseRoundTrip
		"stall=200,stallns=1000,preempt=150,abort=100,wakedelay=50,wakedelayns=500,seed=9",
		"abort=40,seed=3",
		"stall", "stall=x", "bogus=1",
		"stallns=5", "seed=7", " abort = 2 ,, ", "abort=18446744073709551616", "off,abort=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		v, err := ParseChaosSpec(text)
		if err != nil {
			if err.Error() == "" {
				t.Fatalf("ParseChaosSpec(%q): error with no message", text)
			}
			return
		}
		canon, err := ParseChaosSpec(v.String())
		if err != nil || canon.String() != v.String() || canon.Enabled() != v.Enabled() {
			t.Fatalf("ParseChaosSpec(%q) = %+v; its String %q parses to %+v, %v", text, v, v.String(), canon, err)
		}
		if again, err := ParseChaosSpec(canon.String()); err != nil || again != canon {
			t.Fatalf("canonical spec %+v does not round-trip: %+v, %v", canon, again, err)
		}
	})
}

// scanStripes agrees with a hold record per stripe (heldTable) on every
// scan of a table of at most 64 stripes: the same violation, or none, and
// holds that list exactly the locked stripes with the record's since.
// data[0] sizes the table; then a byte with the top bit set is a scan
// after a clock step of its low four bits in milliseconds, any other byte
// b stores to stripe b&0x3f (mod the size) an unlocked version or, with
// bit 0x40, the lock word of one of four owners chosen by the next byte.
func FuzzStripeScan(f *testing.F) {
	f.Add([]byte{7, 0x43, 1, 0x80, 0x85, 0x85, 0x81})
	f.Add([]byte{63, 0x7f, 2, 0x40, 3, 0x80, 0x43, 1, 0x83, 0x03, 0x83, 0x43, 1, 0x8f})
	f.Add([]byte{3, 0x41, 0, 0x42, 1, 0x80, 0x84, 0x41, 2, 0x82, 0x8f})
	f.Fuzz(func(t *testing.T, data []byte) {
		const budget = 4 * time.Millisecond
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%64
		stripes := make([]stripe, n)
		model := make(heldTable, n)
		var holds, spare []stripeHold
		now := time.Unix(0, 0)
		for i := 1; i < len(data); i++ {
			b := data[i]
			if b&0x80 == 0 {
				w := uint64(2 * i) // an unlocked version
				if b&0x40 != 0 {
					owner := 0
					if i+1 < len(data) {
						i++
						owner = int(data[i] % 4)
					}
					w = lockWordOf(owner)
				}
				stripes[int(b&0x3f)%n].v.Store(w)
				continue
			}
			now = now.Add(time.Duration(b&0x0f) * time.Millisecond)
			next, got := scanStripes(spare[:0], stripes, holds, now, budget)
			want := model.scan(stripes, now, budget)
			if (got == nil) != (want == nil) || got != nil && *got != *want {
				t.Fatalf("byte %d: scanStripes violation %+v, per-stripe table %+v", i, got, want)
			}
			if got != nil {
				return // the watchdog stops at its first trip
			}
			checkHolds(t, stripes, next)
			for _, h := range next {
				if !h.since.Equal(model[h.ix].since) {
					t.Fatalf("byte %d: stripe %d held since %v, per-stripe table says %v", i, h.ix, h.since, model[h.ix].since)
				}
			}
			holds, spare = next, holds
		}
	})
}
