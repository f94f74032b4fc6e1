package mem

import "testing"

// ParsePlacement returns a named error or a known policy, never panics,
// and the policy's String parses back to it.
func FuzzParsePlacement(f *testing.F) {
	for _, seed := range []string{"interleave", "first-touch", "firsttouch", "striped", // TestParsePlacement
		"", "Interleave", "first-touch ", "Placement(7)"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		v, err := ParsePlacement(text)
		if err != nil {
			if v != 0 || err.Error() == "" {
				t.Fatalf("ParsePlacement(%q) = %v, %q: want the zero policy and a message", text, v, err)
			}
			return
		}
		if v != PlaceInterleave && v != PlaceFirstTouch {
			t.Fatalf("ParsePlacement(%q) = %v: not a policy", text, v)
		}
		if again, err := ParsePlacement(v.String()); err != nil || again != v {
			t.Fatalf("ParsePlacement(%q) = %v; its String parses to %v, %v", text, v, again, err)
		}
	})
}
