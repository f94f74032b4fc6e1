package sim_test

import (
	"fmt"
	"strings"
	"testing"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
)

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

// Validate rejects a machine with no cores and a topology with a
// non-positive factor before anything is built, and New, Run and
// SetFaultHook refuse what they cannot honour with a panic that says so.
func TestConfigValidateRejectsEmptyMachines(t *testing.T) {
	for _, c := range []struct {
		cfg  sim.Config
		want string
	}{
		{sim.Config{}, "Cores must be positive"},
		{sim.Config{Cores: 4, Topology: sim.Topology{Sockets: -1, CoresPerSocket: -4}}, "needs positive sockets"},
	} {
		if err := c.cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %v, want %q", c.cfg.Topology, err, c.want)
		}
	}
	mustPanic := func(want string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
				t.Errorf("recovered %v, want a panic mentioning %q", r, want)
			}
		}()
		f()
	}
	mustPanic("Cores must be positive", func() { sim.New(sim.Config{}) })
	m := sim.New(sim.DefaultConfig(1))
	mustPanic("2 programs for 1 cores", func() { m.Run(func(*sim.Ctx) {}, func(*sim.Ctx) {}) })
	mustPanic("SetFaultHook after Run", func() { m.SetFaultHook(nil) })
}

// A violation report names every core's state, an unresponsive core and a
// finished one included, and a stall-timeout trip says which core stopped
// answering; a core fault renders its stack line by line.
func TestViolationAndFaultRender(t *testing.T) {
	v := &sim.ProgressViolation{Kind: sim.KindHostDeadlock, TripCore: 1, Cores: []sim.CoreSnapshot{
		{Core: 0, Done: true}, {Core: 1, Unresponsive: true}, {Core: 2},
	}}
	text := v.String()
	for _, want := range []string{"core 1 unresponsive", "done", "UNRESPONSIVE", "running"} {
		if !strings.Contains(text, want) {
			t.Errorf("violation render lacks %q:\n%s", want, text)
		}
	}
	var b strings.Builder
	sim.CoreFault{Core: 2, Value: "boom", Stack: "main.f()\n\tf.go:1\n"}.Render(&b)
	if want := "core 2 panicked at cycle 0: boom\n    main.f()\n    \tf.go:1\n"; !strings.HasSuffix(b.String(), want) {
		t.Errorf("fault render = %q, want it to end %q", b.String(), want)
	}
}
