package mem

import (
	"math/rand"
	"testing"
)

// FuzzMemoryModel decodes Alloc, AllocLinesHeaded, Store, Load, Reserve,
// Back and Materialize operations on two Memorys from the fuzz bytes and
// holds both to checkMemoryModel's eagerly backed model.
func FuzzMemoryModel(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 64, 512, 4096} {
		seed := make([]byte, n)
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(checkMemoryModel)
}
