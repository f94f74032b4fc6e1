package sim_test

import (
	"strings"
	"testing"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
)

func TestParseTopology(t *testing.T) {
	good := map[string]sim.Topology{
		"1x4":  {Sockets: 1, CoresPerSocket: 4},
		"4x16": {Sockets: 4, CoresPerSocket: 16},
		"8x32": {Sockets: 8, CoresPerSocket: 32},
	}
	for s, want := range good {
		got, err := sim.ParseTopology(s)
		if err != nil {
			t.Errorf("ParseTopology(%q): %v", s, err)
		} else if got != want {
			t.Errorf("ParseTopology(%q) = %v, want %v", s, got, want)
		}
		if got.String() != s {
			t.Errorf("Topology.String() = %q, want %q", got.String(), s)
		}
	}
	for _, s := range []string{"", "4", "4x", "x16", "0x16", "4x0", "-2x8", "axb",
		// Sscanf("%dx%d") took all of these for 4x16.
		"4x16x2", "4x16abc", "4x 16", " 4x16", "4x16 ", "+4x+16", "4X16", "99999999999x1"} {
		if _, err := sim.ParseTopology(s); err == nil {
			t.Errorf("ParseTopology(%q) accepted malformed topology", s)
		}
	}
}

func TestConfigValidateTopology(t *testing.T) {
	cfg := sim.DefaultConfig(16)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("flat 16-core config rejected: %v", err)
	}
	cfg.Topology = sim.Topology{Sockets: 4, CoresPerSocket: 4}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("4x4 topology over 16 cores rejected: %v", err)
	}
	cfg.Topology = sim.Topology{Sockets: 3, CoresPerSocket: 4}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("3x4 topology over 16 cores accepted; want factoring error")
	}
	if !strings.Contains(err.Error(), "16") {
		t.Errorf("factoring error %q does not name the core count", err)
	}
}

// TestTopologyResolveDefaults pins that a zero Topology resolves to the
// flat single-socket machine and that New surfaces the resolved value.
func TestTopologyResolveDefaults(t *testing.T) {
	m := sim.New(sim.DefaultConfig(4))
	if got := m.Topology(); got != (sim.Topology{Sockets: 1, CoresPerSocket: 4}) {
		t.Errorf("resolved topology = %v, want 1x4", got)
	}
	if !m.Topology().IsFlat() {
		t.Errorf("1x4 topology should report IsFlat")
	}
	cfg := sim.DefaultConfig(8)
	cfg.Topology = sim.Topology{Sockets: 2, CoresPerSocket: 4}
	m2 := sim.New(cfg)
	if m2.Topology().IsFlat() {
		t.Errorf("2x4 topology should not report IsFlat")
	}
}

// TestNUMALatencies pins the multi-socket cost model against hand-computed
// cycle charges: local vs. remote L2, dirty-remote fetch, and the
// remote-memory penalty under interleaved placement.
func TestNUMALatencies(t *testing.T) {
	lat := sim.DefaultLatencies()
	cfg := sim.DefaultConfig(4)
	cfg.Topology = sim.Topology{Sockets: 2, CoresPerSocket: 2}
	m := sim.New(cfg)

	// One line per placement page so home sockets are independent.
	page := uint64(1) << mem.PlacementPageShift
	a := m.Mem.Alloc(page, page) // page index even → home socket 0
	b := m.Mem.Alloc(page, page) // page index odd → home socket 1

	aHome := m.Mem.HomeSocket(a, 0)
	bHome := m.Mem.HomeSocket(b, 0)
	if aHome == bHome {
		t.Fatalf("page-aligned consecutive allocations homed on one socket (%d, %d)", aHome, bHome)
	}
	local, remote := a, b
	if aHome != 0 {
		local, remote = b, a
	}

	// Core 0 (socket 0): cold miss to a locally-homed page pays Mem, to a
	// remotely-homed page pays Mem+RemoteMem.
	if got, want := m.AccessCost(0, local, false), lat.Mem; got != want {
		t.Errorf("local cold miss = %d cycles, want %d", got, want)
	}
	if got, want := m.AccessCost(0, remote, false), lat.Mem+lat.RemoteMem; got != want {
		t.Errorf("remote-homed cold miss = %d cycles, want %d", got, want)
	}
	// Now resident in socket 0's hierarchy: L1 hit.
	if got, want := m.AccessCost(0, local, false), lat.L1Hit; got != want {
		t.Errorf("L1 hit = %d cycles, want %d", got, want)
	}

	// Core 2 (socket 1) reading a clean line cached on socket 0: remote-L2
	// fetch.
	if got, want := m.AccessCost(2, local, false), lat.RemoteL2; got != want {
		t.Errorf("remote clean L2 fetch = %d cycles, want %d", got, want)
	}

	// Core 0 dirties the line (write hit in its own L1), then core 3
	// (socket 1) reads it: dirty-remote fetch.
	m.AccessCost(0, local, true)
	if got, want := m.AccessCost(3, local, false), lat.RemoteDirty; got != want {
		t.Errorf("dirty-remote fetch = %d cycles, want %d", got, want)
	}

	sock := m.Caches.Socket
	if sock[1].CrossSocketMisses == 0 {
		t.Errorf("socket 1 recorded no cross-socket misses after remote fetches")
	}
	if sock[1].RemoteDirtyFetches == 0 {
		t.Errorf("socket 1 recorded no remote dirty fetches")
	}
}

// TestNUMACountersFlatZero pins that a 1-socket machine records no NUMA
// traffic at all — the structural guarantee that lets reports omit the
// per-socket block on flat machines without changing any output.
func TestNUMACountersFlatZero(t *testing.T) {
	m := sim.New(sim.DefaultConfig(4))
	addr := m.Mem.AllocLines(8)
	m.Run(func(c *sim.Ctx) {
		for i := uint64(0); i < 64; i++ {
			c.Store(addr+i*8%512, i)
			c.Load(addr + (i*24)%512)
		}
	})
	for i, s := range m.Caches.Socket {
		if s.CrossSocketMisses != 0 || s.RemoteDirtyFetches != 0 || s.DirectoryInvalidations != 0 {
			t.Errorf("flat machine socket %d has NUMA traffic: %+v", i, s)
		}
	}
}
