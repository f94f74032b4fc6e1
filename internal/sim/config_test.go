package sim_test

import (
	"fmt"
	"strings"
	"testing"

	"hastm.dev/hastm/internal/cache"
	"hastm.dev/hastm/internal/sim"
)

// Validate rejects a machine with no cores and one with more cores than
// the directory names before anything is built, and New, Run and
// SetFaultHook refuse what they cannot honour with a panic that says so.
func TestConfigValidateRejectsEmptyMachines(t *testing.T) {
	for _, c := range []struct {
		cfg  sim.Config
		want string
	}{
		{sim.Config{}, "Cores must be positive"},
		{sim.DefaultConfig(cache.MaxGroups + 1), "exceeds the"},
	} {
		if err := c.cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate of %d cores = %v, want %q", c.cfg.Cores, err, c.want)
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
