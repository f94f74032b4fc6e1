package native

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

// allocN runs one transaction on th that makes n allocations of size bytes
// and returns their addresses.
func allocN(t *testing.T, th tm.Thread, n int, size uint64) []uint64 {
	t.Helper()
	var addrs []uint64
	err := th.Atomic(func(tx tm.Txn) error {
		addrs = addrs[:0]
		for i := 0; i < n; i++ {
			addrs = append(addrs, tx.Alloc(size, mem.WordSize))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return addrs
}

// A fresh System gives the arena no host memory: New's only backing is
// what Materialize adds to the populated structure, so once that is
// already private New allocates less than one chunk (the stripe table
// aside) for a 4 MiB arena.
func TestNewBacksNoArena(t *testing.T) {
	m := mem.New()
	ds := workloads.NewHashtable(m, 256)
	ds.Populate(m, workloads.NewRand(1))
	m.Materialize()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys := New(m, Config{Threads: 2})
	runtime.ReadMemStats(&after)
	const stripeTable = numStripes * 8 // one word per stripe
	if got := after.TotalAlloc - before.TotalAlloc - stripeTable; got >= arenaChunk {
		t.Fatalf("New allocated %d bytes beside the stripe table for a %d-byte arena; want under one %d-byte chunk",
			got, sys.cfg.ArenaBytes, arenaChunk)
	}
}

// A thread takes shared arena chunks only when its own runs out: N 64-byte
// allocations move arenaNext by exactly ⌈N·64 / 64 KiB⌉ chunks.
func TestArenaChunkCount(t *testing.T) {
	for _, n := range []int{1, 1024, 1025, 3000} {
		sys := New(mem.New(), Config{Threads: 1})
		base := sys.arenaNext.Load()
		allocN(t, sys.Thread(0), n, 64)
		chunks := (uint64(n)*64 + arenaChunk - 1) / arenaChunk
		if got := sys.arenaNext.Load() - base; got != chunks*arenaChunk {
			t.Errorf("%d allocations moved arenaNext by %d bytes, want %d chunks", n, got, chunks)
		}
	}
}

// Two threads allocating in turn never place anything on a page the other
// allocates on: Back may run on one thread's pages while the other reads its
// own.
func TestArenaChunksArePrivate(t *testing.T) {
	const page = 4096 // mem's backing page
	sys := New(mem.New(), Config{Threads: 2})
	owner := map[uint64]int{}
	for round := 0; round < 40; round++ {
		for id := 0; id < 2; id++ {
			size := uint64(8 << (round % 12)) // 8 B .. 16 KiB
			for _, a := range allocN(t, sys.Thread(id), 3, size) {
				for p := a / page; p <= (a+size-1)/page; p++ {
					if o, ok := owner[p]; ok && o != id {
						t.Fatalf("page %#x holds allocations of threads %d and %d", p*page, o, id)
					}
					owner[p] = id
				}
			}
		}
	}
}

// Exhaustion counts the chunks threads hold, not the bytes they used: in a
// three-chunk arena, once two threads hold one chunk each and one takes the
// third, the other cannot place a chunk-sized allocation though most of
// the arena is unused.
func TestArenaExhaustedAcrossThreads(t *testing.T) {
	sys := New(mem.New(), Config{Threads: 2, ArenaBytes: 3 * arenaChunk})
	a, b := sys.Thread(0), sys.Thread(1)
	allocN(t, a, 1, 64)
	allocN(t, b, 1, 64)
	allocN(t, a, 1, arenaChunk)
	allocN(t, b, 1, 64) // still fits in b's chunk
	err := b.Atomic(func(tx tm.Txn) error {
		tx.Alloc(arenaChunk, mem.WordSize)
		return nil
	})
	if !errors.Is(err, ErrArenaExhausted) || !strings.Contains(err.Error(), "65536") {
		t.Fatalf("chunk-sized alloc in a spent arena returned %v, want ErrArenaExhausted naming 65536", err)
	}
}

// A size that wraps the bump arithmetic is exhaustion, not an address the
// next allocation gets too.
func TestAllocOverflowIsError(t *testing.T) {
	sys := New(mem.New(), Config{Threads: 1})
	th := sys.Thread(0)
	err := th.Atomic(func(tx tm.Txn) error {
		tx.Alloc(^uint64(0), mem.WordSize)
		return nil
	})
	if !errors.Is(err, ErrArenaExhausted) || !strings.Contains(err.Error(), "18446744073709551615") {
		t.Fatalf("Alloc(^0) returned %v, want ErrArenaExhausted naming the size", err)
	}
	if addrs := allocN(t, th, 2, 8); addrs[0] == addrs[1] {
		t.Fatalf("two allocations share address %#x", addrs[0])
	}
}
