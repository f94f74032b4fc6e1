package service

// The graceful-degradation ladder: a windowed p99 SLO-breach detector
// with hysteresis. Each core evaluates its own sojourn latencies in
// fixed-size request windows; consecutive breached windows climb the
// ladder (shed scans first, then transfers — reads are always served),
// consecutive healthy windows climb back down. While any level is
// engaged the hot-key circuit is open: writes to hot keys are shed
// outright instead of serialized, so the serial path cannot amplify an
// overload. All state is per core and fed only by deterministic inputs
// on the simulator backend, so degraded sim cells stay byte-identical
// across worker counts.

// DegradeConfig tunes the ladder. The SLO budget is per backend — the
// same split as AdmissionConfig's shed budgets — because a simulated
// cycle and a host nanosecond are different axes: SLOCycles gates the
// sim backend, SLONS the native one, and 0 disables the ladder on that
// backend.
type DegradeConfig struct {
	// SLOCycles is the sim backend's p99 sojourn budget in simulated
	// cycles; 0 disables the ladder on the sim backend.
	SLOCycles uint64
	// SLONS is the native backend's p99 sojourn budget in host
	// nanoseconds; 0 disables the ladder on the native backend.
	SLONS uint64
}

// The ladder's hysteresis: a window is degradeWindow committed requests,
// engageAfter consecutive breached windows escalate one level, and
// recoverAfter consecutive healthy windows de-escalate one — deliberately
// slower than engaging so the ladder does not flap around the SLO boundary.
const (
	degradeWindow = 256
	engageAfter   = 2
	recoverAfter  = 4
)

// Ladder levels.
const (
	degradeOff       = 0 // serve everything
	degradeScans     = 1 // shed scans
	degradeTransfers = 2 // shed scans and transfers
)

// degrade is one core's ladder state.
type degrade struct {
	slo uint64 // one backend's budget from DegradeConfig; 0 disables the ladder

	level    int
	maxLevel int
	win      Histogram
	breaches int // consecutive breached windows
	healthy  int // consecutive healthy windows

	engaged   uint64
	recovered uint64
}

func (d *degrade) enabled() bool { return d.slo > 0 }

// fold merges the ladder's transition accounting into the core's metrics;
// deferred by the run loops so error returns still account.
func (d *degrade) fold(cm *CellMetrics) {
	cm.DegradeEngaged += d.engaged
	cm.DegradeRecovered += d.recovered
	if d.maxLevel > cm.MaxDegradeLevel {
		cm.MaxDegradeLevel = d.maxLevel
	}
}

// shouldShed reports whether the current ladder level sheds this request
// class, and names the shed cause for accounting and the event trace.
func (d *degrade) shouldShed(class opClass) (bool, string) {
	if !d.enabled() || d.level == degradeOff {
		return false, ""
	}
	switch class {
	case ClassScan:
		return true, "slo-scan"
	case ClassTransfer:
		if d.level >= degradeTransfers {
			return true, "slo-transfer"
		}
	}
	return false, ""
}

// circuitOpen reports whether the hot-key circuit breaker is open: while
// degraded, hot-key writes are shed instead of serialized.
func (d *degrade) circuitOpen() bool { return d.enabled() && d.level > degradeOff }

// observe records one committed request's sojourn latency and, at window
// boundaries, runs the hysteresis step. It returns a transition cause
// ("" for none): "shed-scans" / "shed-transfers" when a level engages,
// "recover" when one disengages.
func (d *degrade) observe(latency uint64) string {
	if !d.enabled() {
		return ""
	}
	d.win.Record(latency)
	if d.win.Total() < degradeWindow {
		return ""
	}
	p99 := d.win.Percentile(0.99)
	d.win = Histogram{}
	if p99 > d.slo {
		d.healthy = 0
		d.breaches++
		if d.breaches >= engageAfter && d.level < degradeTransfers {
			d.breaches = 0
			d.level++
			d.engaged++
			if d.level > d.maxLevel {
				d.maxLevel = d.level
			}
			if d.level == degradeScans {
				return "shed-scans"
			}
			return "shed-transfers"
		}
		return ""
	}
	d.breaches = 0
	d.healthy++
	if d.healthy >= recoverAfter && d.level > degradeOff {
		d.healthy = 0
		d.level--
		d.recovered++
		return "recover"
	}
	return ""
}
