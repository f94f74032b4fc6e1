package native

import (
	"fmt"
	"sync"
	"testing"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/tm"
)

// Host-throughput benchmarks for the native TL2 backend, swept over
// goroutine counts. Unlike the simulator benchmarks (which measure charged
// cycles deterministically), these measure real wall-clock transaction
// throughput; ns/op is per committed transaction and the txn/s metric is
// the aggregate commit rate. The sweep exists to eyeball scaling on wider
// hosts (counts above the machine's core count just oversubscribe).

var benchThreadCounts = []int{1, 2, 4, 8, 16, 32}

// runBenchThreads splits b.N transactions across `threads` goroutines,
// each driving its own Thread handle, and reports aggregate throughput.
func runBenchThreads(b *testing.B, sys *System, threads int, body func(th tm.Thread, id int) error) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		n := b.N / threads
		if g < b.N%threads {
			n++
		}
		wg.Add(1)
		go func(id, ops int) {
			defer wg.Done()
			th := sys.Thread(id)
			for i := 0; i < ops; i++ {
				if err := body(th, id); err != nil {
					b.Error(err)
					return
				}
			}
		}(g, n)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "txn/s")
}

// BenchmarkNativeMixed is the workloads' common shape — 24 reads, 2
// writes — with each goroutine in its own cache-line-disjoint segment, so
// it measures barrier and commit cost scaling without conflict aborts.
func BenchmarkNativeMixed(b *testing.B) {
	const segWords = 32
	for _, threads := range benchThreadCounts {
		b.Run(fmt.Sprintf("threads-%d", threads), func(b *testing.B) {
			m := mem.New()
			segs := make([]uint64, threads)
			for i := range segs {
				segs[i] = m.Alloc(segWords*mem.WordSize, mem.LineSize)
			}
			sys := New(m, Config{Threads: threads})
			runBenchThreads(b, sys, threads, func(th tm.Thread, id int) error {
				base := segs[id]
				return th.Atomic(func(tx tm.Txn) error {
					for i := uint64(0); i < 24; i++ {
						tx.Load(base + (i%segWords)*mem.WordSize)
					}
					tx.Store(base+24*mem.WordSize, 1)
					tx.Store(base+25*mem.WordSize, 2)
					return nil
				})
			})
		})
	}
}

// BenchmarkNativeReadOnly measures the read-only commit fast path (stamp
// at rv, zero validation) over a shared region every goroutine scans.
func BenchmarkNativeReadOnly(b *testing.B) {
	const words = 64
	for _, threads := range benchThreadCounts {
		b.Run(fmt.Sprintf("threads-%d", threads), func(b *testing.B) {
			m := mem.New()
			base := m.Alloc(words*mem.WordSize, mem.LineSize)
			for i := uint64(0); i < words; i++ {
				m.Store(base+i*mem.WordSize, i)
			}
			sys := New(m, Config{Threads: threads})
			runBenchThreads(b, sys, threads, func(th tm.Thread, id int) error {
				return th.Atomic(func(tx tm.Txn) error {
					for i := uint64(0); i < words; i++ {
						tx.Load(base + i*mem.WordSize)
					}
					return nil
				})
			})
		})
	}
}

// BenchmarkNativeHotCounter is the worst case: every goroutine
// read-modify-writes one shared word, so commit-time lock conflicts and
// validation aborts dominate as the count grows.
func BenchmarkNativeHotCounter(b *testing.B) {
	for _, threads := range benchThreadCounts {
		b.Run(fmt.Sprintf("threads-%d", threads), func(b *testing.B) {
			m := mem.New()
			ctr := m.Alloc(mem.WordSize, mem.LineSize)
			sys := New(m, Config{Threads: threads})
			runBenchThreads(b, sys, threads, func(th tm.Thread, id int) error {
				return th.Atomic(func(tx tm.Txn) error {
					tx.Store(ctr, tx.Load(ctr)+1)
					return nil
				})
			})
		})
	}
}

// benchWriterTxn times one goroutine committing a transaction of `stores`
// stores, `stride` bytes apart, with the body built once so allocs/op is the
// backend's own. The two writer-path benchmarks below are its two shapes;
// both read 0 allocs/op, which TestSteadyStateAllocs holds.
func benchWriterTxn(b *testing.B, stores, stride uint64) {
	m := mem.New()
	base := m.Alloc(stores*stride, mem.LineSize)
	th := New(m, Config{Threads: 1}).Thread(0)
	body := func(tx tm.Txn) error {
		for i := uint64(0); i < stores; i++ {
			tx.Store(base+i*stride, i)
		}
		return nil
	}
	if err := th.Atomic(body); err != nil { // grow the logs
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := th.Atomic(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNativeWriterCommit is the writer commit: four stores on four
// stripes, so lock acquisition, the clock tick, write-back and release
// dominate the four store barriers.
func BenchmarkNativeWriterCommit(b *testing.B) { benchWriterTxn(b, 4, mem.LineSize) }

// BenchmarkNativeStoreBarrier is the store barrier: 64 word-adjacent stores
// (8 stripes) per transaction, so the write index and log append dominate
// the one commit.
func BenchmarkNativeStoreBarrier(b *testing.B) { benchWriterTxn(b, 64, mem.WordSize) }

// benchSink defeats dead-code elimination in the jitter benchmark.
var benchSink uint64

// BenchmarkHostBackoffJitter is the per-step cost of the seeded xorshift64
// stream that jitters Backoff's sleep window — it sits on the retry
// path of every conflicted transaction, so it must stay allocation-free
// and a few nanoseconds.
func BenchmarkHostBackoffJitter(b *testing.B) {
	sys := New(mem.New(), Config{Threads: 1})
	th := sys.Thread(0).(*Thread)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += th.backoffRand()
	}
	benchSink = sink
}

// BenchmarkNativeChaosOverhead bounds what arming the chaos plane costs a
// transaction that is never actually injected: "off" is the plane
// disabled, "armed" draws a plan at every transaction begin but at a
// period so long no injection ever fires, so the difference is pure
// plan-draw bookkeeping on the hot path.
func BenchmarkNativeChaosOverhead(b *testing.B) {
	for _, mode := range []struct {
		name string
		spec ChaosSpec
	}{
		{"off", ChaosSpec{}},
		{"armed", ChaosSpec{Stall: 1 << 40, Preempt: 1 << 40, Abort: 1 << 40, WakeDelay: 1 << 40, Seed: 1}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			m := mem.New()
			ctr := m.Alloc(mem.WordSize, mem.LineSize)
			sys := New(m, Config{Threads: 1, Chaos: mode.spec})
			runBenchThreads(b, sys, 1, func(th tm.Thread, id int) error {
				return th.Atomic(func(tx tm.Txn) error {
					tx.Store(ctr, tx.Load(ctr)+1)
					return nil
				})
			})
		})
	}
}

// BenchmarkNativeSpuriousAbortRetry measures the full injected-abort
// round trip — plan draw, mid-commit abort at a drawn point, strike,
// backoff, winning retry — by planning a spurious abort on every
// transaction. It gates the cost of the containment/retry machinery
// itself, independent of real contention.
func BenchmarkNativeSpuriousAbortRetry(b *testing.B) {
	m := mem.New()
	ctr := m.Alloc(mem.WordSize, mem.LineSize)
	sys := New(m, Config{Threads: 1, Chaos: ChaosSpec{Abort: 1, Seed: 1}})
	runBenchThreads(b, sys, 1, func(th tm.Thread, id int) error {
		return th.Atomic(func(tx tm.Txn) error {
			tx.Store(ctr, tx.Load(ctr)+1)
			return nil
		})
	})
}
