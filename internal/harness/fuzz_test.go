package harness

import "testing"

// ParseMapping returns a named error or one of the two policy names, never
// panics, and a policy name parses to itself.
func FuzzParseMapping(f *testing.F) {
	for _, seed := range []string{"", MapCompact, MapScatter, "Compact", "scatter ", "spread", "compact,scatter"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		v, err := ParseMapping(text)
		if err != nil {
			if v != "" || err.Error() == "" {
				t.Fatalf("ParseMapping(%q) = %q, %q: want no policy and a message", text, v, err)
			}
			return
		}
		if v != MapCompact && v != MapScatter {
			t.Fatalf("ParseMapping(%q) = %q: not a policy", text, v)
		}
		if again, err := ParseMapping(v); err != nil || again != v {
			t.Fatalf("ParseMapping(%q) = %q, which parses to %q, %v", text, v, again, err)
		}
	})
}
