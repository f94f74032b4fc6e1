package sim

import "hastm.dev/hastm/internal/telemetry"

// SetTxnTrace attaches the machine's one event buffer (hastm-bench -trace,
// tmsim -trace, the watchdog's recent-event tail); nil detaches it. Attach
// before Run.
func (m *Machine) SetTxnTrace(b *telemetry.TraceBuffer) { m.txnTrace = b }

// TxnTrace returns the attached event buffer, or nil.
func (m *Machine) TxnTrace() *telemetry.TraceBuffer { return m.txnTrace }

// EmitTxn records one event, stamping it with this core's id and clock.
// Free (no simulated cost) and a no-op without an attached buffer; the nil
// check is the entire disabled-path cost, so emitters call it
// unconditionally.
func (c *Ctx) EmitTxn(ev telemetry.TxnEvent) {
	if b := c.m.txnTrace; b != nil {
		ev.Core, ev.Cycle = c.id, c.clock
		b.Add(ev)
	}
}
