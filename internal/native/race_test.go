package native

import (
	"sync"
	"testing"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

// Race-detector soak for the native backend: randomized multi-goroutine
// torture over real shared memory. These tests are most valuable under
// `go test -race` (CI runs them there); the invariants they assert —
// conserved bank totals, matched produce/consume counts, tree ordering,
// oracle-clean op logs — hold regardless.
//
// Retry-blocking transactions never run with the escalation ladder armed:
// as on the simulator backend, Retry inside an irrevocable transaction is
// a programming-model violation (the serial lock would deadlock), so the
// wakeup soaks use budget 0 and the escalation soaks avoid Retry.

// TestBankTransferSoak moves money between a few hot accounts from many
// goroutines with the escalation ladder armed, nesting the debit/credit
// pair inside an inner atomic block, then asserts the total is conserved.
// The hot words conflict heavily, so some transactions exhaust the retry
// budget and take the irrevocable path.
func TestBankTransferSoak(t *testing.T) {
	const (
		goroutines = 8
		accounts   = 16
		transfers  = 500
		initial    = 1000
	)
	m := mem.New()
	base := m.Alloc(accounts*mem.WordSize, mem.LineSize)
	for i := uint64(0); i < accounts; i++ {
		m.Store(base+i*mem.WordSize, initial)
	}
	sys := New(m, Config{
		RetryBudget: 3,
		Threads:     goroutines,
	})
	addr := func(i uint64) uint64 { return base + (i%accounts)*mem.WordSize }

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := sys.Thread(id)
			r := workloads.NewRand(uint64(id)*0x9e3779b9 + 17)
			for n := 0; n < transfers; n++ {
				from, to := addr(r.Next()), addr(r.Next())
				if from == to {
					continue
				}
				amt := 1 + r.Intn(50)
				err := th.Atomic(func(tx tm.Txn) error {
					bal := tx.Load(from)
					if bal < amt {
						return nil // insufficient funds: commit a no-op
					}
					// The debit/credit pair merges from a nested block, so
					// nesting is exercised on both the revocable and the
					// escalated path.
					return tx.Atomic(func(nx tm.Txn) error {
						nx.Store(from, bal-amt)
						nx.Store(to, nx.Load(to)+amt)
						return nil
					})
				})
				if err != nil {
					t.Errorf("goroutine %d transfer %d: %v", id, n, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	var total uint64
	for i := uint64(0); i < accounts; i++ {
		total += m.Load(base + i*mem.WordSize)
	}
	if total != accounts*initial {
		t.Fatalf("total = %d, want %d: money was created or destroyed", total, accounts*initial)
	}
}

// TestQueueRetrySoak exercises retry/orElse wakeup under load with
// guaranteed termination: producers push a fixed grand total of tokens
// into two counters, consumers pop exactly that many, blocking via OrElse
// (drain A, else drain B, else wait on the union of both) when empty.
// Because pushes and pops are exactly matched, no consumer can block
// forever — but mid-run, consumers regularly sleep on the watch set and
// must be woken by producer commits.
func TestQueueRetrySoak(t *testing.T) {
	const (
		pairs   = 4
		perGoro = 250
	)
	m := mem.New()
	// Separate lines, so the two queues live on distinct stripes and a
	// blocked consumer genuinely waits on a two-stripe watch set.
	qa := m.Alloc(mem.WordSize, mem.LineSize)
	qb := m.Alloc(mem.WordSize, mem.LineSize)
	sys := New(m, Config{Threads: 2 * pairs})

	var wg sync.WaitGroup
	consumed := make([]uint64, pairs)
	for p := 0; p < pairs; p++ {
		wg.Add(2)
		// Producer: pushes perGoro tokens, alternating queues.
		go func(id int) {
			defer wg.Done()
			th := sys.Thread(id)
			r := workloads.NewRand(uint64(id) + 101)
			for n := 0; n < perGoro; n++ {
				q := qa
				if r.Percent(50) {
					q = qb
				}
				err := th.Atomic(func(tx tm.Txn) error {
					tx.Store(q, tx.Load(q)+1)
					return nil
				})
				if err != nil {
					t.Errorf("producer %d push %d: %v", id, n, err)
					return
				}
			}
		}(p)
		// Consumer: pops perGoro tokens, blocking when both queues are dry.
		go func(slot, id int) {
			defer wg.Done()
			th := sys.Thread(id)
			var got uint64
			for n := 0; n < perGoro; n++ {
				err := th.Atomic(func(tx tm.Txn) error {
					return tx.OrElse(
						func(ax tm.Txn) error {
							v := ax.Load(qa)
							if v == 0 {
								ax.Retry()
							}
							ax.Store(qa, v-1)
							return nil
						},
						func(bx tm.Txn) error {
							v := bx.Load(qb)
							if v == 0 {
								bx.Retry()
							}
							bx.Store(qb, v-1)
							return nil
						},
					)
				})
				if err != nil {
					t.Errorf("consumer %d pop %d: %v", id, n, err)
					return
				}
				got++
			}
			consumed[slot] = got
		}(p, pairs+p)
	}
	wg.Wait()

	var total uint64
	for _, c := range consumed {
		total += c
	}
	if total != pairs*perGoro {
		t.Fatalf("consumed %d tokens, want %d", total, pairs*perGoro)
	}
	if a, b := m.Load(qa), m.Load(qb); a != 0 || b != 0 {
		t.Fatalf("queues not drained: a=%d b=%d", a, b)
	}
}

// TestStructureTortureSoak hammers the shared BST and hashtable from many
// goroutines using the differential (content-commuting) op mix with the
// escalation ladder armed, then verifies structure invariants and replays
// the committed-op log through the sequential oracle.
func TestStructureTortureSoak(t *testing.T) {
	const goroutines = 8
	builders := []struct {
		name string
		mk   func(m *mem.Memory) workloads.DataStructure
	}{
		{"bst", func(m *mem.Memory) workloads.DataStructure { return workloads.NewBST(m, 64) }},
		{"hashtable", func(m *mem.Memory) workloads.DataStructure { return workloads.NewHashtable(m, 256) }},
	}
	for _, b := range builders {
		b := b
		t.Run(b.name, func(t *testing.T) {
			m := mem.New()
			ds := b.mk(m)
			ds.Populate(m, workloads.NewRand(7))
			sys := New(m, Config{
				RetryBudget: 4,
				Threads:     goroutines,
				ArenaBytes:  1 << 22,
			})
			log := workloads.NewOpLog()
			cfg := workloads.DriverConfig{Ops: 150, UpdatePercent: 50, Seed: 7}
			var wg sync.WaitGroup
			errs := make([]error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					errs[id] = workloads.RunDiffThread(sys.Thread(id), ds, cfg, log)
				}(g)
			}
			wg.Wait()
			for id, err := range errs {
				if err != nil {
					t.Fatalf("goroutine %d: %v", id, err)
				}
			}
			if _, err := workloads.VerifyDiffOracle(ds, m, b.mk, 7, log); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAllocPublishSoak is the arena's race argument under -race: goroutines
// allocate nodes from their own chunks — each backing its pages while the
// others read theirs — publish them onto one shared list and read every
// field of every node the others published. Nodes are a line each and the
// run spans several chunks per goroutine.
func TestAllocPublishSoak(t *testing.T) {
	const (
		goroutines = 4
		nodes      = 1500
		// node fields: owner, sequence number, next
		owner, seq, next = 8, 16, 24
	)
	m := mem.New()
	head := m.Alloc(mem.WordSize, mem.LineSize)
	sys := New(m, Config{Threads: goroutines})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			th := sys.Thread(int(id))
			for n := uint64(1); n <= nodes; n++ {
				err := th.Atomic(func(tx tm.Txn) error {
					p := tx.Alloc(mem.LineSize, mem.LineSize)
					tx.StoreInit(p+owner, id)
					tx.StoreInit(p+seq, n)
					tx.StoreInit(p+next, tx.Load(head))
					tx.Store(head, p)
					return nil
				})
				if err != nil {
					t.Errorf("goroutine %d node %d: %v", id, n, err)
					return
				}
				if n%100 != 0 {
					continue
				}
				err = th.Atomic(func(tx tm.Txn) error {
					for p := tx.Load(head); p != 0; p = tx.Load(p + next) {
						if o, s := tx.Load(p+owner), tx.Load(p+seq); o >= goroutines || s == 0 || s > nodes {
							t.Errorf("node %#x reads owner %d seq %d", p, o, s)
						}
					}
					return nil
				})
				if err != nil {
					t.Errorf("goroutine %d traversal: %v", id, err)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	seen := map[[2]uint64]bool{}
	for p := m.Load(head); p != 0; p = m.Load(p + next) {
		seen[[2]uint64{m.Load(p + owner), m.Load(p + seq)}] = true
	}
	if len(seen) != goroutines*nodes {
		t.Fatalf("list holds %d distinct nodes, want %d", len(seen), goroutines*nodes)
	}
}

// TestNestedOrElseUnderLoad exercises partial rollback and orElse
// fallthrough concurrently: each transaction tries to claim a random slot,
// and on finding it occupied falls through to an alternative that proves
// nested rollback keeps the occupied value intact. The second alternative
// always succeeds, so nothing blocks.
func TestNestedOrElseUnderLoad(t *testing.T) {
	const goroutines = 6
	m := mem.New()
	slots := m.Alloc(64*mem.WordSize, mem.LineSize)
	sys := New(m, Config{Threads: goroutines})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := sys.Thread(id)
			r := workloads.NewRand(uint64(id) + 3)
			for n := 0; n < 300; n++ {
				slot := slots + r.Intn(64)*mem.WordSize
				err := th.Atomic(func(tx tm.Txn) error {
					return tx.OrElse(
						func(ax tm.Txn) error {
							if ax.Load(slot) != 0 {
								ax.Retry() // occupied: try the other branch
							}
							ax.Store(slot, uint64(id)<<32|uint64(n)|1)
							return nil
						},
						func(bx tm.Txn) error {
							// Occupied: clear it inside a nested block, then
							// fail the nested block so the clear rolls back,
							// leaving the slot untouched.
							inner := bx.Atomic(func(nx tm.Txn) error {
								nx.Store(slot, 0)
								return errProbe
							})
							if inner != errProbe {
								t.Errorf("nested error = %v", inner)
							}
							if bx.Load(slot) == 0 {
								t.Error("nested rollback lost the occupied slot")
							}
							return nil
						},
					)
				})
				if err != nil {
					t.Errorf("goroutine %d op %d: %v", id, n, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

var errProbe = probeError{}

type probeError struct{}

func (probeError) Error() string { return "probe" }
