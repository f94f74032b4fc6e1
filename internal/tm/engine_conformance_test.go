package tm_test

// The engine conformance suite: one set of control-plane cases — commit,
// rollback, nesting, orElse/retry, the escalation ladder, sandboxing — run
// against every protocol bound to tm.Engine, the hardware path included; a
// case a backend cannot run is skipped through its capability field.
// Protocol-specific behaviour (validation, sandboxed commit, MVCC upgrade,
// stamps, chaos, watchdog, hardware conflicts) is tested in the protocol's
// own package.

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hastm.dev/hastm/internal/cache"
	"hastm.dev/hastm/internal/core"
	"hastm.dev/hastm/internal/htm"
	"hastm.dev/hastm/internal/lazystm"
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/native"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/stm"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// engineThread is what every engine-backed thread exposes beyond tm.Thread.
type engineThread interface {
	tm.Thread
	tm.Txn
	AtomicSerialized(func(tm.Txn) error) error
	Irrevocable() bool
}

// abortConflict forces a conflict-style abort of the current attempt, as a
// protocol's failed validation does.
func abortConflict() { panic(tm.AbortSignal{Cause: telemetry.AbortValidation}) }

// worker is one thread of a fixture plus raw, non-transactional access to
// the shared memory, for cross-thread test choreography.
type worker struct {
	engineThread
	rawLoad  func(addr uint64) uint64
	rawStore func(addr, val uint64)
	pause    func()
}

// fixture is one system over fresh memory with 16 line-spaced words.
type fixture struct {
	words uint64
	load  func(addr uint64) uint64 // final memory, after run
	run   func(progs ...func(w worker))
	stats func() *telemetry.Machine
	// Simulator only (nil on the host backend): a thread's final clock, and
	// the event trace, which every case must leave passing its life-cycle
	// check.
	simTime func(thread int) uint64
	trace   *telemetry.TraceBuffer
}

func (f *fixture) word(i uint64) uint64 { return f.words + i*mem.LineSize }

// capability is a control-plane feature a case may need beyond commit,
// abort, nested commit and sandboxing. The hardware path lacks some; a
// case skips on a backend that lacks what it needs.
type capability uint8

const (
	retry           capability = 1 << iota // Txn.Retry and OrElse
	partialRollback                        // a failed nested block undoes only its own effects
	escalation                             // the ladder escalates the thread's own starved attempts
	serialization                          // AtomicSerialized runs irrevocably on an armed ladder
)

type backend struct {
	name string
	// opaque protocols never expose an inconsistent read set to a body, so
	// the engine's zombie rule cannot fire; the backend contains foreign
	// panics as errors instead of letting them propagate.
	opaque bool
	lacks  capability
	build  func(threads int, cfg tm.Config) *fixture
}

func simBackend(name string, lacks capability, mk func(*sim.Machine, tm.Config) tm.System) backend {
	return backend{name: name, lacks: lacks, build: func(threads int, cfg tm.Config) *fixture {
		mc := sim.DefaultConfig(threads)
		mc.L1 = cache.Config{SizeBytes: 8 << 10, Assoc: 4}
		mc.L2 = cache.Config{SizeBytes: 64 << 10, Assoc: 8}
		m := sim.New(mc)
		m.SetTxnTrace(telemetry.NewTraceBuffer(0))
		cfg.Granularity, cfg.ValidateEvery = tm.LineGranularity, 64
		sys := mk(m, cfg)
		clocks := make([]uint64, threads)
		return &fixture{
			words: m.Mem.Alloc(16*mem.LineSize, mem.LineSize),
			load:  m.Mem.Load,
			stats: func() *telemetry.Machine { return m.Stats },
			run: func(progs ...func(w worker)) {
				ps := make([]sim.Program, len(progs))
				for i, p := range progs {
					ps[i] = func(c *sim.Ctx) {
						defer func() { clocks[c.ID()] = c.Clock() }()
						p(worker{
							engineThread: sys.Thread(c).(engineThread),
							rawLoad:      c.Load,
							rawStore:     c.Store,
							pause:        func() { c.Exec(1) },
						})
					}
				}
				m.Run(ps...)
			},
			simTime: func(thread int) uint64 { return clocks[thread] },
			trace:   m.TxnTrace(),
		}
	}}
}

var backends = []backend{
	simBackend("stm", 0, func(m *sim.Machine, c tm.Config) tm.System { return stm.New(m, c) }),
	simBackend("hastm", 0, func(m *sim.Machine, c tm.Config) tm.System {
		hc := core.DefaultConfig(tm.LineGranularity)
		hc.TM = c
		return core.New(m, hc)
	}),
	simBackend("lazy", 0, func(m *sim.Machine, c tm.Config) tm.System { return lazystm.New(m, c) }),
	simBackend("mvcc", 0, func(m *sim.Machine, c tm.Config) tm.System { return lazystm.NewMVCC(m, c) }),
	// Pure HTM has no ladder, no retry and no partial rollback.
	simBackend("htm", retry|partialRollback|escalation|serialization,
		func(m *sim.Machine, _ tm.Config) tm.System { return htm.NewHTM(m) }),
	// HyTM runs what its hardware half cannot on its software thread,
	// AtomicSerialized included, but the hardware half never escalates.
	simBackend("hytm", escalation, func(m *sim.Machine, c tm.Config) tm.System { return htm.NewHyTM(m, c, 4) }),
	{name: "native", opaque: true, build: func(threads int, cfg tm.Config) *fixture {
		m := mem.New()
		words := m.Alloc(16*mem.LineSize, mem.LineSize)
		sys := native.New(m, native.Config{RetryBudget: cfg.Progress.RetryBudget, Threads: threads})
		return &fixture{
			words: words,
			load:  m.Load,
			stats: sys.Stats,
			run: func(progs ...func(w worker)) {
				var wg sync.WaitGroup
				for i, p := range progs {
					wg.Add(1)
					go func(id int, p func(w worker)) {
						defer wg.Done()
						p(worker{
							engineThread: sys.Thread(id).(engineThread),
							rawLoad:      m.LoadAtomic,
							rawStore:     m.StoreAtomic,
							pause:        runtime.Gosched,
						})
					}(i, p)
				}
				wg.Wait()
			},
		}
	}},
}

// forEachBackend runs the case once per protocol, skipping a backend that
// lacks a capability the case needs.
func forEachBackend(t *testing.T, threads int, cfg tm.Config, needs capability, body func(t *testing.T, b backend, f *fixture)) {
	for _, b := range backends {
		b := b
		t.Run(b.name, func(t *testing.T) {
			if b.lacks&needs != 0 {
				t.Skipf("%s lacks capability %#x", b.name, b.lacks&needs)
			}
			f := b.build(threads, cfg)
			body(t, b, f)
			if f.trace != nil {
				if err := f.trace.Check(); err != nil {
					t.Errorf("trace: %v", err)
				}
			}
		})
	}
}

var ladder2 = tm.Config{Progress: tm.Progress{RetryBudget: 2}}

// recovered runs f and returns the panic it raised, rendered, or "".
func recovered(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

func TestEngineCommitPublishes(t *testing.T) {
	forEachBackend(t, 1, tm.Config{}, 0, func(t *testing.T, _ backend, f *fixture) {
		f.run(func(w worker) {
			if err := w.Atomic(func(tx tm.Txn) error {
				tx.Store(f.word(0), 11)
				tx.Store(f.word(0)+8, 22)
				if got := tx.Load(f.word(0)); got != 11 {
					t.Errorf("read-own-write = %d, want 11", got)
				}
				return nil
			}); err != nil {
				t.Errorf("Atomic: %v", err)
			}
		})
		if f.load(f.word(0)) != 11 || f.load(f.word(0)+8) != 22 {
			t.Fatal("committed values not visible")
		}
		if got := f.stats().Commits(); got != 1 {
			t.Fatalf("commits = %d, want 1", got)
		}
	})
}

func TestEngineBodyErrorRollsBack(t *testing.T) {
	forEachBackend(t, 2, tm.Config{}, 0, func(t *testing.T, _ backend, f *fixture) {
		boom, owned := errors.New("boom"), errors.New("the rolled-back word is still owned")
		word, sync := f.word(0), f.word(1)
		f.run(func(w worker) {
			_ = w.Atomic(func(tx tm.Txn) error { tx.Store(word, 5); return nil })
			if err := w.Atomic(func(tx tm.Txn) error {
				tx.Store(word, 99)
				return boom
			}); !errors.Is(err, boom) {
				t.Errorf("err = %v, want boom", err)
			}
			w.rawStore(sync, 1)
		}, func(w worker) {
			for w.rawLoad(sync) != 1 {
				w.pause()
			}
			// Nothing stayed owned: another thread takes the word on its
			// first attempt.
			attempts := 0
			if err := w.Atomic(func(tx tm.Txn) error {
				if attempts++; attempts > 1 {
					return owned
				}
				tx.Store(word, tx.Load(word)+1)
				return nil
			}); err != nil {
				t.Errorf("Atomic after rollback: %v", err)
			}
		})
		if got := f.load(word); got != 6 {
			t.Fatalf("value = %d, want 6 (5 kept by the rollback, then +1)", got)
		}
		if st := f.stats(); st.TotalAborts() != 0 || st.Commits() != 2 {
			t.Fatalf("aborts=%d commits=%d, want 0/2: a body error is not an abort", st.TotalAborts(), st.Commits())
		}
	})
}

func TestEngineUserAbort(t *testing.T) {
	forEachBackend(t, 1, tm.Config{}, 0, func(t *testing.T, _ backend, f *fixture) {
		f.run(func(w worker) {
			err := w.Atomic(func(tx tm.Txn) error {
				tx.Store(f.word(0), 1)
				tx.Abort()
				t.Error("Abort returned")
				return nil
			})
			if !errors.Is(err, tm.ErrUserAbort) {
				t.Errorf("err = %v, want ErrUserAbort", err)
			}
		})
		if f.load(f.word(0)) != 0 {
			t.Fatal("user abort did not roll back")
		}
		if got := f.stats().Block(0).Aborts(telemetry.AbortExplicit); got != 1 {
			t.Fatalf("explicit aborts = %d, want 1", got)
		}
	})
}

func TestEngineNestedPartialRollback(t *testing.T) {
	forEachBackend(t, 1, tm.Config{}, partialRollback, func(t *testing.T, _ backend, f *fixture) {
		boom := errors.New("inner fails")
		a, b := f.word(0), f.word(1)
		f.run(func(w worker) {
			if err := w.Atomic(func(tx tm.Txn) error {
				tx.Store(a, 1)
				if err := tx.Atomic(func(in tm.Txn) error {
					in.Store(b, 2)  // a different record
					in.Store(a, 99) // overwrite the outer value
					return boom
				}); !errors.Is(err, boom) {
					t.Errorf("nested err = %v", err)
				}
				// Partial rollback: outer write survives, inner undone.
				if got := tx.Load(a); got != 1 {
					t.Errorf("outer value after partial rollback = %d", got)
				}
				if got := tx.Load(b); got != 0 {
					t.Errorf("inner value not rolled back: %d", got)
				}
				return nil
			}); err != nil {
				t.Errorf("Atomic: %v", err)
			}
			// The outer commit published none of the inner block's stores.
			if got := w.rawLoad(b); got != 0 {
				t.Errorf("inner value published by the outer commit: %d", got)
			}
			// The inner record was released: another transaction takes it.
			if err := w.Atomic(func(tx tm.Txn) error { tx.Store(b, 7); return nil }); err != nil {
				t.Errorf("Atomic on the rolled-back record: %v", err)
			}
		})
		if f.load(a) != 1 || f.load(b) != 7 {
			t.Fatalf("memory = %d/%d, want 1/7", f.load(a), f.load(b))
		}
	})
}

func TestEngineNestedCommitMerges(t *testing.T) {
	forEachBackend(t, 1, tm.Config{}, 0, func(t *testing.T, _ backend, f *fixture) {
		f.run(func(w worker) {
			if err := w.Atomic(func(tx tm.Txn) error {
				tx.Store(f.word(0), 1)
				return tx.Atomic(func(in tm.Txn) error {
					in.Store(f.word(0), in.Load(f.word(0))+10) // sees the parent's write
					in.Store(f.word(1), 2)
					return nil
				})
			}); err != nil {
				t.Errorf("Atomic: %v", err)
			}
		})
		if f.load(f.word(0)) != 11 || f.load(f.word(1)) != 2 {
			t.Fatalf("memory = %d/%d, want 11/2: nested writes commit with the parent", f.load(f.word(0)), f.load(f.word(1)))
		}
		if got := f.stats().Commits(); got != 1 {
			t.Fatalf("commits = %d: a nested commit merges, it does not commit", got)
		}
	})
}

// Eight levels, each storing its own word. Level 5 fails after levels 6..8
// committed into it, so words 5..8 roll back together; level 4 swallows the
// error and levels 1..4 commit.
func TestEngineDeepNesting(t *testing.T) {
	forEachBackend(t, 1, tm.Config{}, partialRollback, func(t *testing.T, _ backend, f *fixture) {
		boom := errors.New("level 5 fails")
		f.run(func(w worker) {
			var level func(tx tm.Txn, n uint64) error
			level = func(tx tm.Txn, n uint64) error {
				tx.Store(f.word(n), n)
				if n == 8 {
					return nil
				}
				err := tx.Atomic(func(in tm.Txn) error { return level(in, n+1) })
				switch n {
				case 5:
					if err != nil {
						t.Errorf("levels 6..8 returned %v", err)
					}
					return boom
				case 4:
					if !errors.Is(err, boom) {
						t.Errorf("level 5 returned %v, want boom", err)
					}
					if got := tx.Load(f.word(8)); got != 0 {
						t.Errorf("word 8 = %d inside level 4, want 0", got)
					}
					return nil
				}
				return err
			}
			if err := w.Atomic(func(tx tm.Txn) error { return level(tx, 1) }); err != nil {
				t.Errorf("deep nesting: %v", err)
			}
		})
		for n := uint64(1); n <= 8; n++ {
			want := n
			if n >= 5 {
				want = 0
			}
			if got := f.load(f.word(n)); got != want {
				t.Errorf("word %d = %d, want %d", n, got, want)
			}
		}
	})
}

// orElseOver builds an orElse whose alternative i takes from queue i, and
// retries when it is empty.
func orElseOver(f *fixture, out uint64, queues ...uint64) func(tm.Txn) error {
	alts := make([]func(tm.Txn) error, len(queues))
	for i, q := range queues {
		q := q
		alts[i] = func(a tm.Txn) error {
			v := a.Load(q)
			if v == 0 {
				a.Store(out, 999) // must be rolled back with the alternative
				a.Retry()
			}
			a.Store(out, v)
			return nil
		}
	}
	return func(tx tm.Txn) error { return tx.OrElse(alts...) }
}

func TestEngineOrElseTakesLaterAlternative(t *testing.T) {
	for _, filled := range []uint64{1, 2} { // the second, then the third alternative
		filled := filled
		t.Run(fmt.Sprintf("alt%d", filled+1), func(t *testing.T) {
			forEachBackend(t, 1, tm.Config{}, retry, func(t *testing.T, _ backend, f *fixture) {
				out := f.word(8)
				f.run(func(w worker) {
					_ = w.Atomic(func(tx tm.Txn) error { tx.Store(f.word(filled), 9); return nil })
					if err := w.Atomic(orElseOver(f, out, f.word(0), f.word(1), f.word(2))); err != nil {
						t.Errorf("orElse: %v", err)
					}
				})
				if got := f.load(out); got != 9 {
					t.Fatalf("orElse result = %d, want 9", got)
				}
				if got := f.stats().Block(0).Count(telemetry.Retries); got != 0 {
					t.Fatalf("retry-waits = %d: a later alternative ran, nothing should wait", got)
				}
			})
		})
	}
}

func TestEngineNestedOrElseInsideNestedAtomic(t *testing.T) {
	forEachBackend(t, 1, tm.Config{}, retry, func(t *testing.T, _ backend, f *fixture) {
		out := f.word(8)
		f.run(func(w worker) {
			_ = w.Atomic(func(tx tm.Txn) error { tx.Store(f.word(1), 4); return nil })
			if err := w.Atomic(func(tx tm.Txn) error {
				tx.Store(f.word(9), 1)
				return tx.Atomic(orElseOver(f, out, f.word(0), f.word(1)))
			}); err != nil {
				t.Errorf("Atomic: %v", err)
			}
		})
		if f.load(out) != 4 || f.load(f.word(9)) != 1 {
			t.Fatalf("out=%d outer=%d, want 4/1", f.load(out), f.load(f.word(9)))
		}
	})
}

// If every alternative retries, the retry propagates and the transaction
// waits on the UNION of the alternatives' read sets: a change to either
// queue — the first alternative's as much as the last's — must wake it.
func TestEngineOrElseAllRetryWaitsOnUnion(t *testing.T) {
	for _, filled := range []uint64{0, 1} {
		filled := filled
		t.Run(fmt.Sprintf("wake-on-q%d", filled), func(t *testing.T) {
			forEachBackend(t, 2, tm.Config{}, retry, func(t *testing.T, _ backend, f *fixture) {
				out := f.word(8)
				f.run(func(w worker) {
					if err := w.Atomic(orElseOver(f, out, f.word(0), f.word(1))); err != nil {
						t.Errorf("consumer: %v", err)
					}
				}, func(w worker) {
					_ = w.Atomic(func(tx tm.Txn) error { tx.Exec(8000); return nil }) // let the consumer block first
					if err := w.Atomic(func(tx tm.Txn) error { tx.Store(f.word(filled), 5); return nil }); err != nil {
						t.Errorf("producer: %v", err)
					}
				})
				if got := f.load(out); got != 5 {
					t.Fatalf("out = %d, want 5", got)
				}
				// The host backend proves the union by terminating: a waiter
				// whose wait set misses the changed queue never wakes. The
				// simulator's waits are bounded (spurious wakeups), so there
				// the wait set's size is read off the retry trace event.
				if f.trace == nil {
					return
				}
				for _, ev := range f.trace.Events() {
					if ev.Core == 0 && ev.Kind == telemetry.EvRetry {
						if ev.Watch != 2 {
							t.Fatalf("first retry-wait watched %d records, want both alternatives' reads", ev.Watch)
						}
						return
					}
				}
				t.Fatal("consumer never retry-waited")
			})
		})
	}
}

func TestEngineRetryWakesOnChange(t *testing.T) {
	forEachBackend(t, 2, tm.Config{}, retry, func(t *testing.T, _ backend, f *fixture) {
		flag, out, sync := f.word(0), f.word(1), f.word(2)
		f.run(func(w worker) {
			if err := w.Atomic(func(tx tm.Txn) error {
				if tx.Load(flag) == 0 {
					w.rawStore(sync, 1)
					tx.Retry()
				}
				tx.Store(out, tx.Load(flag))
				return nil
			}); err != nil {
				t.Errorf("consumer: %v", err)
			}
		}, func(w worker) {
			// Produce once the consumer has seen no flag, and late enough that
			// HyTM's software re-execution parks too.
			for w.rawLoad(sync) != 1 {
				w.pause()
			}
			_ = w.Atomic(func(tx tm.Txn) error { tx.Exec(5000); return nil })
			if err := w.Atomic(func(tx tm.Txn) error { tx.Store(flag, 42); return nil }); err != nil {
				t.Errorf("producer: %v", err)
			}
		})
		if got := f.load(out); got != 42 {
			t.Fatalf("consumer saw %d, want 42", got)
		}
		if got := f.stats().Block(0).Count(telemetry.Retries); got == 0 {
			t.Fatal("consumer never counted a retry-wait")
		}
		if f.simTime != nil && f.simTime(0) > 1_000_000 {
			t.Fatalf("consumer finished at cycle %d: woken by timeout, not by the change", f.simTime(0))
		}
	})
}

func TestEngineAccessOutsideAtomicPanics(t *testing.T) {
	forEachBackend(t, 1, tm.Config{}, 0, func(t *testing.T, _ backend, f *fixture) {
		f.run(func(w worker) {
			for name, access := range map[string]func(){
				"Load":  func() { w.Load(f.word(0)) },
				"Store": func() { w.Store(f.word(0), 1) },
				"Retry": func() { w.Retry() },
				"Abort": func() { w.Abort() },
			} {
				if recovered(access) == "" {
					t.Errorf("%s outside Atomic did not panic", name)
				}
			}
		})
	})
}

// A transaction that keeps aborting must climb the ladder: after
// RetryBudget failed attempts the next attempt runs irrevocably and commits
// — the terminal commit the progress guarantee promises. The strikes are
// injected, so the case needs no contention and cannot skip.
func TestEngineLadderEscalatesAtBudget(t *testing.T) {
	forEachBackend(t, 1, ladder2, escalation, func(t *testing.T, _ backend, f *fixture) {
		f.run(func(w worker) {
			attempts := 0
			if err := w.Atomic(func(tx tm.Txn) error {
				attempts++
				if w.Irrevocable() != (attempts == 3) {
					t.Errorf("attempt %d: irrevocable = %v", attempts, w.Irrevocable())
				}
				tx.Store(f.word(0), tx.Load(f.word(0))+1)
				if attempts <= 2 {
					abortConflict()
				}
				return nil
			}); err != nil {
				t.Errorf("Atomic: %v", err)
			}
			if w.Irrevocable() {
				t.Error("ladder still held after the terminal commit")
			}
			// Strikes are per transaction: the next one starts revocable.
			if err := w.Atomic(func(tx tm.Txn) error {
				if w.Irrevocable() {
					t.Error("a fresh transaction began irrevocable")
				}
				tx.Store(f.word(0), tx.Load(f.word(0))+1)
				return nil
			}); err != nil {
				t.Errorf("Atomic: %v", err)
			}
		})
		if got := f.load(f.word(0)); got != 2 {
			t.Fatalf("counter = %d, want 2", got)
		}
		if esc, ent := f.stats().Count(telemetry.Escalations), f.stats().Count(telemetry.IrrevocableEntries); esc != 1 || ent != 1 {
			t.Fatalf("escalations=%d irrevocable entries=%d, want 1/1", esc, ent)
		}
		if st := f.stats(); st.Commits() != 2 || st.TotalAborts() != 2 {
			t.Fatalf("commits=%d aborts=%d, want 2/2", st.Commits(), st.TotalAborts())
		}
	})
}

// AtomicSerialized escalates on attempt 0 when the ladder is armed and is a
// plain Atomic when it is not.
func TestEngineSerializedRunsIrrevocable(t *testing.T) {
	for _, armed := range []bool{true, false} {
		armed := armed
		cfg, needs := tm.Config{}, partialRollback
		if armed {
			cfg, needs = ladder2, partialRollback|serialization
		}
		t.Run(fmt.Sprintf("armed=%v", armed), func(t *testing.T) {
			forEachBackend(t, 1, cfg, needs, func(t *testing.T, _ backend, f *fixture) {
				f.run(func(w worker) {
					boom := errors.New("inner")
					if err := w.AtomicSerialized(func(tx tm.Txn) error {
						if w.Irrevocable() != armed {
							t.Errorf("irrevocable = %v, want %v", w.Irrevocable(), armed)
						}
						tx.Store(f.word(0), 1)
						// Nested rollback works on the serial path too.
						if err := tx.Atomic(func(in tm.Txn) error {
							in.Store(f.word(0), 2)
							return boom
						}); !errors.Is(err, boom) {
							t.Errorf("nested err = %v", err)
						}
						if got := tx.Load(f.word(0)); got != 1 {
							t.Errorf("after nested rollback Load = %d, want 1", got)
						}
						return nil
					}); err != nil {
						t.Errorf("AtomicSerialized: %v", err)
					}
				})
				want := uint64(0)
				if armed {
					want = 1
				}
				if esc, ent := f.stats().Count(telemetry.Escalations), f.stats().Count(telemetry.IrrevocableEntries); esc != want || ent != want {
					t.Fatalf("escalations=%d irrevocable entries=%d, want %d/%d", esc, ent, want, want)
				}
				if got := f.load(f.word(0)); got != 1 {
					t.Fatalf("committed %d, want 1", got)
				}
			})
		})
	}
}

// Retry and Abort have no meaning in an irrevocable transaction — there is
// no rollback path — so both must fail loudly rather than corrupt the
// serial mode: a panic on the simulator (contained there as a CoreFault),
// a contained *TxnFault on the host backend.
func TestEngineIrrevocableForbidsRetryAndAbort(t *testing.T) {
	for _, call := range []string{"Retry", "Abort"} {
		call := call
		t.Run(call, func(t *testing.T) {
			forEachBackend(t, 1, ladder2, serialization, func(t *testing.T, b backend, f *fixture) {
				f.run(func(w worker) {
					var err error
					msg := recovered(func() {
						err = w.AtomicSerialized(func(tx tm.Txn) error {
							if call == "Retry" {
								tx.Retry()
							} else {
								tx.Abort()
							}
							return nil
						})
					})
					var fault *native.TxnFault
					if errors.As(err, &fault) {
						msg = fault.Value
					}
					if !strings.Contains(msg, "irrevocable") {
						t.Errorf("%s while irrevocable: panic %q err %v, want the irrevocable diagnostic", call, msg, err)
					}
					if b.opaque && w.Irrevocable() {
						t.Error("containment left the thread irrevocable")
					}
				})
				f.trace = nil // the panic left the attempt unterminated, as a failed cell's
			})
		})
	}
}

// The sandboxing rule, consistent half: a foreign panic out of a body whose
// read set still validates is the program's own bug. The engine lets it
// propagate; the host backend contains it as a *TxnFault, restoring the
// stripe locks and the serial lock so the system stays usable.
func TestEngineForeignPanicPropagates(t *testing.T) {
	forEachBackend(t, 1, ladder2, 0, func(t *testing.T, b backend, f *fixture) {
		f.run(func(w worker) {
			for _, serialized := range []bool{false, true} {
				var err error
				msg := recovered(func() {
					atomic := w.Atomic
					if serialized {
						atomic = w.AtomicSerialized
					}
					err = atomic(func(tx tm.Txn) error {
						tx.Store(f.word(0), tx.Load(f.word(0))+100)
						panic("boom")
					})
				})
				if !b.opaque {
					if msg != "boom" {
						t.Errorf("serialized=%v: panic = %q, want boom to propagate", serialized, msg)
					}
					return // the simulator retires a faulted core; nothing more to run
				}
				var fault *native.TxnFault
				if !errors.As(err, &fault) || fault.Value != "boom" || fault.Irrevocable != serialized {
					t.Errorf("serialized=%v: err = %v, want a contained TxnFault", serialized, err)
				}
				if err := w.AtomicSerialized(func(tx tm.Txn) error {
					tx.Store(f.word(0), tx.Load(f.word(0))+1)
					return nil
				}); err != nil {
					t.Errorf("transaction after a contained fault: %v", err)
				}
			}
		})
		if b.opaque {
			if got := f.load(f.word(0)); got != 2 {
				t.Fatalf("word = %d, want 2: faulted stores rolled back, both follow-ups committed", got)
			}
		}
		f.trace = nil // the panic left the attempt unterminated, as a failed cell's
	})
}

// The sandboxing rule, zombie half: a foreign panic out of a body that ran
// on an inconsistent read set is an effect of the inconsistency, so the
// engine turns it into a validation abort and re-executes. An opaque
// protocol never exposes such a read set; its reader sees a clean fault.
func TestEngineZombiePanicBecomesAbort(t *testing.T) {
	forEachBackend(t, 2, tm.Config{}, 0, func(t *testing.T, b backend, f *fixture) {
		data, mine, sync := f.word(0), f.word(1), f.word(2)
		var readerErr error
		f.run(func(w worker) {
			attempts := 0
			readerErr = w.Atomic(func(tx tm.Txn) error {
				attempts++
				tx.Store(mine, uint64(attempts)) // a writer, so MVCC reads are logged too
				v := tx.Load(data)
				if attempts == 1 {
					w.rawStore(sync, 1)
					for w.rawLoad(sync) != 2 {
						w.pause()
					}
					panic("zombie: computed on a value that no longer exists")
				}
				tx.Store(mine, v)
				return nil
			})
		}, func(w worker) {
			for w.rawLoad(sync) != 1 {
				w.pause()
			}
			if err := w.Atomic(func(tx tm.Txn) error { tx.Store(data, 77); return nil }); err != nil {
				t.Errorf("writer: %v", err)
			}
			w.rawStore(sync, 2)
		})
		if b.opaque {
			var fault *native.TxnFault
			if !errors.As(readerErr, &fault) {
				t.Fatalf("reader err = %v, want a contained TxnFault", readerErr)
			}
			return
		}
		if readerErr != nil {
			t.Fatalf("reader err = %v, want the zombie re-executed to commit", readerErr)
		}
		if got := f.load(mine); got != 77 {
			t.Fatalf("reader committed %d, want 77 (the re-execution's read)", got)
		}
		if got := f.stats().Block(0).Aborts(telemetry.AbortValidation); got != 1 {
			t.Fatalf("reader validation aborts = %d, want 1", got)
		}
	})
}

// The zombie half covers a body's error as it covers a foreign panic: a
// reader that saw x and y from different commits and says so is a zombie,
// so the engine re-executes it instead of returning its error — at top
// level, and from a nested block, whose error would otherwise steer the
// parent. An opaque protocol never shows the reader a torn pair.
func TestEngineZombieErrorBecomesAbort(t *testing.T) {
	for _, nested := range []bool{false, true} {
		nested := nested
		needs := capability(0)
		if nested {
			needs = partialRollback
		}
		t.Run(fmt.Sprintf("nested=%v", nested), func(t *testing.T) {
			forEachBackend(t, 2, tm.Config{}, needs, func(t *testing.T, _ backend, f *fixture) {
				x, y, sync := f.word(0), f.word(1), f.word(2)
				torn := errors.New("x and y disagree")
				var readerErr error
				f.run(func(w worker) {
					attempts := 0
					read := func(tx tm.Txn) error {
						attempts++
						vx := tx.Load(x)
						if attempts == 1 {
							w.rawStore(sync, 1)
							for w.rawLoad(sync) != 2 {
								w.pause()
							}
						}
						if tx.Load(y) != vx {
							return torn
						}
						return nil
					}
					readerErr = w.Atomic(func(tx tm.Txn) error {
						if nested {
							return tx.Atomic(read)
						}
						return read(tx)
					})
				}, func(w worker) {
					for w.rawLoad(sync) != 1 {
						w.pause()
					}
					if err := w.Atomic(func(tx tm.Txn) error {
						tx.Store(x, 1)
						tx.Store(y, 1)
						return nil
					}); err != nil {
						t.Errorf("writer: %v", err)
					}
					w.rawStore(sync, 2)
				})
				if readerErr != nil {
					t.Fatalf("reader err = %v, want the torn read re-executed to commit", readerErr)
				}
			})
		})
	}
}

// OrElse outside an atomic block is a transaction of its own: it runs the
// alternatives as the body of a top-level Atomic. HyTM's hardware thread
// used to refuse it as a barrier outside an atomic block.
func TestEngineTopLevelOrElse(t *testing.T) {
	forEachBackend(t, 1, tm.Config{}, retry, func(t *testing.T, _ backend, f *fixture) {
		out := f.word(8)
		f.run(func(w worker) {
			_ = w.Atomic(func(tx tm.Txn) error { tx.Store(f.word(1), 6); return nil })
			if err := orElseOver(f, out, f.word(0), f.word(1))(w); err != nil {
				t.Errorf("top-level orElse: %v", err)
			}
		})
		if got := f.load(out); got != 6 {
			t.Fatalf("orElse result = %d, want 6", got)
		}
	})
}

// A Retry in a nested atomic block that is not an orElse alternative
// retries the whole transaction: the nested block has no alternative to
// fall back on. With nothing read there is nothing to wait on, so the wait
// is a backoff and the re-execution follows at once (HyTM's hardware
// attempt falls back to software instead of waiting).
func TestEngineNestedRetryRetriesTheTransaction(t *testing.T) {
	forEachBackend(t, 1, tm.Config{}, retry, func(t *testing.T, b backend, f *fixture) {
		if b.opaque {
			t.Skip("an empty wait set parks a host thread until the wake deadline")
		}
		attempts := 0
		f.run(func(w worker) {
			if err := w.Atomic(func(tx tm.Txn) error {
				attempts++
				tx.Store(f.word(0), uint64(attempts))
				return tx.Atomic(func(in tm.Txn) error {
					if attempts == 1 {
						in.Retry()
					}
					return nil
				})
			}); err != nil {
				t.Errorf("Atomic: %v", err)
			}
		})
		if attempts != 2 || f.load(f.word(0)) != 2 {
			t.Fatalf("attempts %d, word %d: want the retry to re-execute the outer block once", attempts, f.load(f.word(0)))
		}
	})
}
