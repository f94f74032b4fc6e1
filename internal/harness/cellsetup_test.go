package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
)

// benchCell is the repository benchmark's sim-4core cell size.
func benchCell(ops int) Options {
	o := DefaultOptions()
	o.Ops, o.Warmup = ops, 64
	return o
}

// oneCoreCell is the single-core cell size the allocation gates measure.
func oneCoreCell() Options {
	o := DefaultOptions()
	o.Ops, o.Warmup = 1024, 64
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
// page on first store (internal/mem), and a native cell backs its 4 MiB
// arena a 64 KiB chunk per thread as transactions allocate. The simulator
// ceilings carry ~35% headroom over the measured 0.73 MB and 10.3 MB, the
// native ones 20% over 1.66 MB (1 MiB of it the stripe table); eager
// backing measured 7.1 MB, 409 MB and 5.85 MB.
func TestCellAllocBytesCeiling(t *testing.T) {
	nat := DefaultOptions()
	nat.Ops = 20_000
	for _, tc := range []struct {
		name         string
		ceilingBytes uint64
		run          func() (RunMetrics, error)
	}{
		{"bench cell, 4 cores", 1_000_000, func() (RunMetrics, error) { return RunOne("stm", "bst", 4, benchCell(256), 20) }},
		{"256 threads built and initialised", 14_000_000, func() (RunMetrics, error) { return RunOne("stm", "bst", 256, benchCell(256), 20) }},
		{"native hashtable, 1 goroutine", 2_000_000, func() (RunMetrics, error) { return RunOneNative(WorkloadHash, 1, nat, 5) }},
		{"native hashtable, 2 goroutines", 2_000_000, func() (RunMetrics, error) { return RunOneNative(WorkloadHash, 2, nat, 5) }},
	} {
		got := allocBytes(func() {
			if _, err := tc.run(); err != nil {
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
	one := oneCoreCell()
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
	for threads, ceiling := range map[int]float64{1: 49, 2: 71} {
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

// programAllocs counts the heap objects f allocates outside package
// runtime, from the memory profile at one record per allocation. The
// runtime's own allocations (goroutine descriptors, sudogs, timer heaps, a
// goroutine's sleep timer) depend on which P a goroutine ran on, so only the
// program's count can repeat exactly across runs of a multi-goroutine cell.
func programAllocs(f func()) int64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+4096)
	before := programObjects(&recs)
	f()
	return programObjects(&recs) - before
}

// programObjects sums the profile's allocated objects whose allocating
// frame is outside package runtime. It allocates only to grow *recs, after
// the collections that publish what it reads.
func programObjects(recs *[]runtime.MemProfileRecord) int64 {
	runtime.GC() // a record is published by the cycle after the one
	runtime.GC() // that follows its allocation
	n, ok := runtime.MemProfile(*recs, true)
	for !ok {
		*recs = make([]runtime.MemProfileRecord, n+4096)
		n, ok = runtime.MemProfile(*recs, true)
	}
	var objects int64
	for _, r := range (*recs)[:n] {
		if !strings.HasPrefix(runtime.FuncForPC(r.Stack0[0]-1).Name(), "runtime.") {
			objects += r.AllocObjects
		}
	}
	return objects
}

// A two-goroutine native cell allocates the same number of program objects
// at every run, however its goroutines interleave: the TL2 logs start with
// room for a BST operation's read and write sets, and the watchdog's stripe
// scan keeps its holds on its stack.
func TestNativeCellAllocsRepeat(t *testing.T) {
	o := DefaultOptions()
	o.Seed, o.Ops, o.Warmup = 1, 2000, 500
	run := func() {
		if _, err := RunOneNative(WorkloadBST, 2, o, 80); err != nil {
			t.Fatal(err)
		}
	}
	run() // fills the runtime's free lists
	var counts []int64
	for i := 0; i < 3; i++ {
		counts = append(counts, programAllocs(run))
	}
	if counts[1] != counts[0] || counts[2] != counts[0] {
		t.Errorf("native/bst/2g/u80 at seed 1: %v objects allocated in three runs, want one count", counts)
	}
}

// The host bytes of the bench-shaped stm cells, held as TestCellAllocCounts
// holds their counts: a second run with the collector off. The record
// table's whole pages share one head page until a run writes a record on
// them (mem.AllocLinesHeaded); storing every record at construction again
// adds ~128 KB per cell and fails both ceilings.
func TestCellAllocBytes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ceiling uint64
		cores   int
		o       Options
	}{
		{"stm/bst/1c", 520_000, 1, oneCoreCell()},
		{"stm/bst/4c", 610_000, 4, benchCell(256)},
	} {
		run := func() {
			if _, err := RunOne(SchemeSTM, WorkloadBST, tc.cores, tc.o, 20); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		run() // fills the runtime's free lists
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		got := allocBytes(run)
		debug.SetGCPercent(gc)
		t.Logf("%s: %d bytes", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("%s: %d bytes allocated, ceiling %d", tc.name, got, tc.ceiling)
		}
	}
}
