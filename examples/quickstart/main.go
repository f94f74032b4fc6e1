// Quickstart: concurrent bank transfers under HASTM.
//
// Four simulated cores transfer money between eight accounts inside atomic
// blocks. The invariant (total balance) survives any interleaving, and the
// run prints how the hardware acceleration behaved: how many read barriers
// the mark bits filtered and how many validations the mark counter elided.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"hastm.dev/hastm"
	"hastm.dev/hastm/internal/telemetry"
)

const (
	accounts       = 32
	coresN         = 4
	transfersEach  = 250
	initialBalance = 1000
)

func main() {
	machine := hastm.NewMachine(hastm.DefaultMachineConfig(coresN))
	sys := hastm.New(machine, hastm.DefaultConfig(hastm.LineGranularity))

	// Allocate the accounts, one per cache line so transfers conflict only
	// when they really share an account.
	var acct [accounts]uint64
	for i := range acct {
		acct[i] = machine.Mem.Alloc(64, 64)
		machine.Mem.Store(acct[i], initialBalance)
	}

	progs := make([]hastm.Program, coresN)
	for i := range progs {
		progs[i] = func(c *hastm.Core) {
			th := sys.Thread(c)
			rng := uint64(c.ID()*2654435761 + 1)
			next := func(n uint64) uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng % n
			}
			for t := 0; t < transfersEach; t++ {
				from, to := next(accounts), next(accounts)
				if from == to {
					to = (to + 1) % accounts
				}
				amount := next(50) + 1
				err := th.Atomic(func(tx hastm.Txn) error {
					balance := tx.Load(acct[from])
					if balance < amount {
						return nil // insufficient funds; commit a no-op
					}
					tx.Store(acct[from], balance-amount)
					tx.Store(acct[to], tx.Load(acct[to])+amount)
					return nil
				})
				if err != nil {
					panic(err)
				}
			}
		}
	}

	wall := machine.Run(progs...)

	var total uint64
	for i := range acct {
		total += machine.Mem.Load(acct[i])
	}
	fmt.Printf("quickstart: %d transfers on %d cores in %d simulated cycles\n",
		coresN*transfersEach, coresN, wall)
	fmt.Printf("total balance: %d (expected %d) — invariant %s\n",
		total, accounts*initialBalance, okMark(total == accounts*initialBalance))
	fmt.Printf("commits: %d, aborts: %d\n", machine.Stats.Commits(), machine.Stats.TotalAborts())

	st := machine.Stats
	fmt.Printf("hardware acceleration: %d filtered read barriers, %d mark-counter validations, %d read-log appends elided\n",
		st.Count(telemetry.FilteredReads), st.Count(telemetry.FastValidations), st.Count(telemetry.ReadLogsSkipped))
	fmt.Printf("cycle breakdown: %s\n", machine.Stats)
}

func okMark(ok bool) string {
	if ok {
		return "holds"
	}
	return "VIOLATED"
}
