package sim_test

import (
	"testing"

	"hastm.dev/hastm/internal/sim"
)

// ParseTopology returns a named error or a topology with positive
// dimensions, never panics, and the topology's String parses back to it.
func FuzzParseTopology(f *testing.F) {
	for _, seed := range []string{
		"1x4", "4x16", "8x32", // TestParseTopology, accepted
		"", "4", "4x", "x16", "0x16", "4x0", "-2x8", "axb", // and rejected
		"4x16x2", "4x16abc", "4x 16", " 4x16", "4x16 ", "+4x+16", "4X16", "99999999999x1",
		"04x016", "2147483647x2147483647", "2147483648x1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		v, err := sim.ParseTopology(text)
		if err != nil {
			if v != (sim.Topology{}) || err.Error() == "" {
				t.Fatalf("ParseTopology(%q) = %+v, %q: want a zero topology and a message", text, v, err)
			}
			return
		}
		if v.Sockets <= 0 || v.CoresPerSocket <= 0 {
			t.Fatalf("ParseTopology(%q) = %+v: accepted a non-positive dimension", text, v)
		}
		if again, err := sim.ParseTopology(v.String()); err != nil || again != v {
			t.Fatalf("ParseTopology(%q) = %+v; its String %q parses to %+v, %v", text, v, v.String(), again, err)
		}
	})
}
