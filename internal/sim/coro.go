// The go1.23 constraint raises this one file's language version above the
// module's go 1.22 line, which is what lets it use package iter under vet.

//go:build go1.23

package sim

import "iter"

// start makes p this core's coroutine, parked before its first instruction
// until the first grant. Panic containment: anything the program panics
// with — except the internal stop signal that unwinds cores after a watchdog
// trip — becomes a CoreFault report, and the core still runs its completion
// protocol, so the scheduler loop drives every coroutine to its end and
// needs no stop function: none is left parked at a yield (short of a host
// deadlock, where Run abandons the loop itself).
func (c *Ctx) start(p Program) {
	m := c.m
	c.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		defer func() {
			if r := recover(); r != nil && !IsStop(r) {
				m.recordFault(c, r)
			}
			// One final grant to report completion deterministically. A
			// core still holding a lease is below the horizon, so it IS
			// the (clock, id)-minimum core and the completion grant is
			// already its — consume it inline. With no per-operation duty
			// armed nothing reads the completion order, so completion is
			// core-private like Exec: counted, not waited for.
			if !c.leased && m.perOpDuties {
				yield(struct{}{})
			}
			c.leased = false
			if m.watch {
				// Publish final per-core progress under the completion
				// grant, so watchdog snapshots see it.
				c.publishProgress()
			}
			m.sched.Grants++
		}()
		p(c)
	})
}
