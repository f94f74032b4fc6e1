package sim

import "hastm.dev/hastm/internal/telemetry"

// SetTxnTrace attaches the machine's one event buffer (hastm-bench -trace
// and -events, the watchdog's recent-event tail); nil detaches it. Attach
// before Run.
func (m *Machine) SetTxnTrace(b *telemetry.TraceBuffer) { m.txnTrace = b }

// TxnTrace returns the attached event buffer, or nil.
func (m *Machine) TxnTrace() *telemetry.TraceBuffer { return m.txnTrace }

// EmitTxn records one event, stamping it with this core's id and clock
// (see Clock: posted stores retire first). Free (no simulated cost) and a
// no-op without an attached buffer.
func (c *Ctx) EmitTxn(ev telemetry.TxnEvent) {
	if b := c.m.txnTrace; b != nil {
		ev.Core, ev.Cycle = c.id, c.Clock()
		b.Add(ev)
	}
}
