// The go1.23 constraint raises this one file's language version above the
// module's go 1.22 line, which is what lets it use package iter under vet.

//go:build go1.23

package sim

import "iter"

// start makes p this core's coroutine, parked before its first instruction
// until the first grant. Panic containment: anything the program panics
// with — except the internal stop signal that unwinds cores after a watchdog
// trip — becomes a CoreFault report, and the core still runs its completion
// protocol, so the handoffs drive every coroutine to its end and need no
// stop function: none is left parked at a yield (short of a host deadlock,
// where Run abandons the machine itself). A fault is recorded when its
// panic runs, so of two panicking cores the first in host order wins: under
// the lease policy that can be a core that ran ahead of its grant, not the
// one the reference scheduler would have run first.
func (c *Ctx) start(p Program) {
	m := c.m
	c.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		defer func() {
			if r := recover(); r != nil && !IsStop(r) {
				// The operations posted before the panic ran before it:
				// retire them first, so the fault carries the clock the
				// reference scheduler gives it — unless another core
				// failed the machine meanwhile, which stops this one at
				// the first of them.
				if c.postLen != 0 {
					m.handoff(c)
				}
				if !m.failed.Load() {
					m.recordFault(c, r)
				}
			}
			// One final grant to report completion deterministically. A
			// core still holding a lease is below the horizon, so it IS
			// the (clock, id)-minimum core and the completion grant is
			// already its — consume it inline. Without per-operation
			// duties nothing reads the completion order, so below the
			// watchdog threshold completion is core-private like Exec:
			// counted, not waited for — once the core's posted stores
			// have retired. Final progress publishes with it, so watchdog
			// snapshots see it.
			if !c.leased && (m.perOpDuties || c.postLen != 0 || !c.mayRunAhead()) {
				m.handoff(c)
			}
			c.leased = false
			c.publish()
			m.sched.Grants++
		}()
		c.stopIfFailed()
		p(c)
	})
}
