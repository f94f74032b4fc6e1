package telemetry

// GaugeMax returns the maximum of one gauge over every block.
func (m *Machine) GaugeMax(g Gauge) uint64 { return m.Totals().gauges[g] }
