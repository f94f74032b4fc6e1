package native

import "testing"

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
