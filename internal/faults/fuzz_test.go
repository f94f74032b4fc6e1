package faults

import "testing"

// ParseSpec returns a named error or a spec, never panics, and the spec's
// canonical rendering parses back to the same spec.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"suspend=600, evict=900,snoop=1300,htmabort=1500,seed=3", // TestParseSpecRoundTrip
		"suspend", "suspend=x", "frob=3", // TestParseSpecErrors
		"", ",,", "seed=18446744073709551615", "seed=18446744073709551616", "suspend=1,suspend=2", " evict = 7 ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		v, err := ParseSpec(text)
		if err != nil {
			if v != (Spec{}) || err.Error() == "" {
				t.Fatalf("ParseSpec(%q) = %+v, %q: want a zero spec and a message", text, v, err)
			}
			return
		}
		if again, err := ParseSpec(v.String()); err != nil || again != v {
			t.Fatalf("ParseSpec(%q) = %+v; its String %q parses to %+v, %v", text, v, v.String(), again, err)
		}
	})
}
