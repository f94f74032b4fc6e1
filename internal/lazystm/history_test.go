package lazystm

import "testing"

// The ring retains exactly what the append-and-trim slice it replaced
// retained: the newest histDepth versions, oldest first.
func TestHistoryRingMatchesTrimmedSlice(t *testing.T) {
	var h history
	var model []histVersion
	for i := uint64(1); i <= 3*histDepth+5; i++ {
		x := histVersion{ts: 2 * i, val: i * i}
		h.push(x)
		model = append(model, x)
		if len(model) > histDepth {
			model = model[len(model)-histDepth:]
		}
		if h.n != len(model) {
			t.Fatalf("after %d pushes: %d retained, want %d", i, h.n, len(model))
		}
		for j, want := range model {
			if got := h.at(j); got != want {
				t.Fatalf("after %d pushes: at(%d) = %+v, want %+v", i, j, got, want)
			}
		}
	}
}
