// Package service implements the open-loop transactional service cell: a
// bank/KV workload on the existing transactional structures, driven by a
// seeded arrival process with Zipfian key popularity, with per-request
// sojourn latency recorded into fixed-boundary histograms and a hot-key
// admission-control knob that sheds or serializes conflict-storm offenders
// through the irrevocable escalation ladder.
//
// Everything the package computes on the simulator backend derives only
// from deterministic simulated state (per-core arrival schedules, per-core
// admission bookkeeping, per-core histograms merged by commutative sums),
// so service figures keep the harness's byte-identity guarantee across
// worker counts and schedulers.
package service

import (
	"math"
	"sort"

	"hastm.dev/hastm/internal/workloads"
)

// Zipf draws keys from {0, …, n-1} with P(k) ∝ 1/(k+1)^s by inverting the
// precomputed cumulative mass function. s = 0 is uniform; larger s
// concentrates popularity on low-numbered keys (key 0 is always the
// hottest). The draw consumes exactly one Rand value, so a generator
// embedded in a per-op seeded stream replays identically on retry and in
// the sequential oracle.
type Zipf struct {
	cum []float64 // cum[i] = P(X <= i); cum[n-1] == 1
}

// NewZipf builds the inverse-CDF table for n keys with exponent s.
func NewZipf(n uint64, s float64) *Zipf {
	if n == 0 {
		panic("service: Zipf over an empty key space")
	}
	z := &Zipf{cum: make([]float64, n)}
	total := 0.0
	for i := uint64(0); i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		z.cum[i] = total
	}
	for i := range z.cum {
		z.cum[i] /= total
	}
	z.cum[n-1] = 1 // exact, despite rounding
	return z
}

// Next draws one key, consuming one value from r.
func (z *Zipf) Next(r *workloads.Rand) uint64 {
	// 53 uniform bits, the full precision of a float64 in [0, 1).
	u := float64(r.Next()>>11) / (1 << 53)
	return uint64(sort.SearchFloat64s(z.cum, u))
}
