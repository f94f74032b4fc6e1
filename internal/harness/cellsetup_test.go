package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
)

// benchCell is the repository benchmark's sim-4core cell size.
func benchCell(ops int) Options {
	o := DefaultOptions()
	o.Ops, o.Warmup = ops, 64
	return o
}

// allocBytes returns the host bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// The host memory of a cell follows what the run stores to, not what the
// machine reserves: logs, record table and structures are backed page by
// page on first store (internal/mem). Ceilings carry ~35% headroom over the
// measured 0.73 MB and 10.3 MB; eager backing measured 7.1 MB and 409 MB.
func TestCellAllocBytesCeiling(t *testing.T) {
	for _, tc := range []struct {
		name         string
		cores, ops   int
		ceilingBytes uint64
	}{
		{"bench cell, 4 cores", 4, 256, 1_000_000},
		{"256 threads built and initialised", 256, 256, 14_000_000},
	} {
		got := allocBytes(func() {
			if _, err := RunOne("stm", "bst", tc.cores, benchCell(tc.ops), 20); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.ceilingBytes {
			t.Errorf("%s: %d bytes allocated, ceiling %d", tc.name, got, tc.ceilingBytes)
		}
	}
}

// The repository benchmark bounds host_allocs_per_txn at 2 %, which is one or
// two heap allocations per cell, so the count each bench-shaped cell makes is
// an exact ceiling here: a runner that boxes one more closure fails go test
// before it fails the benchmark. Counts are testing.AllocsPerRun at the
// commit that introduced the cell runner's parent, less the two allocations
// of the second metrics store every machine used to carry.
func TestCellAllocCounts(t *testing.T) {
	check := func(name string, ceiling float64, run func() error) {
		t.Helper()
		// A collection inside the measured runs empties the runtime's
		// free lists (coroutine goroutines among them) and shows up as extra
		// allocations; collect first, then hold the collector off.
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		got := testing.AllocsPerRun(5, func() {
			if err := run(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		if got > ceiling {
			t.Errorf("%s: %v allocations per cell, ceiling %v", name, got, ceiling)
		}
	}
	one := DefaultOptions()
	one.Ops, one.Warmup = 1024, 64
	for _, tc := range []struct {
		scheme  string
		ceiling float64
	}{
		{SchemeSeq, 55}, {SchemeLock, 56}, {SchemeSTM, 80}, {SchemeHASTM, 81},
		{SchemeHyTM, 98}, {SchemeLazy, 87}, {SchemeMVCC, 107},
	} {
		check(tc.scheme+"/bst/1c", tc.ceiling, func() error {
			_, err := RunOne(tc.scheme, WorkloadBST, 1, one, 20)
			return err
		})
	}
	for _, tc := range []struct {
		scheme  string
		ceiling float64
	}{
		{SchemeSTM, 203}, {SchemeHASTM, 204}, {SchemeLazy, 224},
	} {
		check(tc.scheme+"/bst/4c", tc.ceiling, func() error {
			_, err := RunOne(tc.scheme, WorkloadBST, 4, benchCell(256), 20)
			return err
		})
	}
	nat := DefaultOptions()
	nat.Ops = 20_000
	for threads, ceiling := range map[int]float64{1: 113, 2: 135} {
		check(fmt.Sprintf("native/hashtable/%dg", threads), ceiling, func() error {
			_, err := RunOneNative(WorkloadHash, threads, nat, 5)
			return err
		})
	}
	svc := DefaultOptions()
	svc.Ops = 2048
	sc := ServiceConfig(svc, 4, 1024, 0.9, DefaultAdmission())
	check("service/stm/4c", 223, func() error {
		_, err := RunOneServiceScheme(SchemeSTM, 4, sc, svc)
		return err
	})
}

// BenchmarkCellSetup is the fixed cost of one cell — machine, scheme,
// populate, warm-up, barrier — with the measured phase cut to one operation
// per thread. TestCellAllocBytesCeiling holds its B/op: eagerly backing the
// simulated memory again fails go test.
func BenchmarkCellSetup(b *testing.B) {
	for _, cores := range []int{1, 4} {
		b.Run(fmt.Sprintf("%dcore", cores), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunOne("stm", "bst", cores, benchCell(cores), 20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
