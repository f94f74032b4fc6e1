// GCPause: language-environment integration (§2, §5).
//
// A garbage collector (or debugger) suspends a transaction mid-flight,
// walks its read set, write set and undo log — the metadata a precise GC
// needs to trace and even MOVE speculatively written objects — and the
// transaction then resumes and commits WITHOUT aborting. The only cost is
// that the ring transition discards the mark bits, so the commit falls
// back to full software validation instead of the mark-counter fast path.
//
// This is the capability that distinguishes HASTM from HTM/HyTM: hardware
// transactions cannot be suspended and inspected; hybrid schemes must drop
// to unaccelerated software. HASTM keeps the transaction, keeps it
// accelerated before and after the pause, and never aborts it.
//
//	go run ./examples/gcpause
package main

import (
	"fmt"

	"hastm.dev/hastm"
	"hastm.dev/hastm/internal/telemetry"
)

func main() {
	machine := hastm.NewMachine(hastm.DefaultMachineConfig(1))
	cfg := hastm.DefaultConfig(hastm.LineGranularity)
	cfg.SingleThread = true
	sys := hastm.New(machine, cfg)

	// A little object graph: three "objects", one line each.
	objs := make([]uint64, 3)
	for i := range objs {
		objs[i] = machine.Mem.Alloc(64, 64)
		machine.Mem.Store(objs[i], uint64(100+i))
	}

	machine.Run(func(c *hastm.Core) {
		th := sys.Thread(c)
		err := th.Atomic(func(tx hastm.Txn) error {
			// Touch some state: two reads, one speculative write.
			a := tx.Load(objs[0])
			b := tx.Load(objs[1])
			tx.Store(objs[2], a+b)

			// --- GC safepoint -------------------------------------------
			hastm.GCPause(th, func(reads, writes []hastm.RecEntry, undo []hastm.UndoEntry) {
				fmt.Println("GC pause: transaction suspended, logs visible to the collector:")
				fmt.Printf("  read set:  %d records\n", len(reads))
				fmt.Printf("  write set: %d records\n", len(writes))
				for _, u := range undo {
					fmt.Printf("  undo log:  addr %#x old value %d (collector could relocate this object)\n",
						u.Addr, u.Old)
				}
			})
			// ------------------------------------------------------------

			// The transaction continues as if nothing happened.
			tx.Store(objs[2], tx.Load(objs[2])+1)
			return nil
		})
		if err != nil {
			panic(err)
		}
	})

	st := machine.Stats
	fmt.Printf("\nafter resume: objs[2] = %d (expected %d)\n",
		machine.Mem.Load(objs[2]), 100+101+1)
	fmt.Printf("commits: %d, aborts: %d  — the pause did NOT abort the transaction\n",
		st.Commits(), st.TotalAborts())
	fmt.Printf("validations: %d full / %d fast — the lost mark bits forced one software validation\n",
		st.Count(telemetry.FullValidations), st.Count(telemetry.FastValidations))
}
