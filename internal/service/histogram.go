package service

import (
	"math"
	"math/bits"
)

// Histogram is a fixed-boundary latency histogram: 8 exact buckets for
// values 0–7, then 8 log-spaced sub-buckets per power of two up to the
// full uint64 range. The boundaries are a pure function of the bucket
// index — no configuration, no host state — so per-core histograms are
// deterministic on the simulator backend and merging is a commutative sum,
// preserving byte-identical reports across worker counts and schedulers.
// Relative bucket width is at most 1/8, which bounds the error of the
// reported percentiles.
const histSub = 8 // sub-buckets per octave (and exact buckets below 8)

// NumBuckets is the fixed bucket count: values 0–7 exactly, then 8
// sub-buckets for each of the 61 octaves [8,16), [16,32), …, [2^63, 2^64).
const NumBuckets = histSub + 61*histSub

// Histogram records counts; the zero value is ready to use.
type Histogram struct {
	counts [NumBuckets]uint64
	total  uint64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := uint(bits.Len64(v) - 4) // v >= 8, so Len >= 4
	return histSub + int(exp)*histSub + int((v>>exp)-histSub)
}

// BucketUpper returns the largest value bucket i holds — the value
// Percentile reports when the rank lands in bucket i.
func BucketUpper(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	oct := uint((i - histSub) / histSub)
	sub := uint64((i - histSub) % histSub)
	return ((histSub+sub+1)<<oct - 1)
}

// Record adds one observation.
func (h *Histogram) Record(v uint64) {
	h.counts[bucketOf(v)]++
	h.total++
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() uint64 { return h.total }

// Merge adds o's counts into h. Addition commutes, so merging per-core
// histograms in any order yields the same result.
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.total += o.total
}

// Percentile returns the upper bound of the bucket holding the q-quantile
// observation (q in [0, 1]), or 0 for an empty histogram. The rank is
// ceil(q·total) clamped to [1, total], so Percentile(1) is the bucketed
// maximum and a one-sample histogram reports that sample's bucket for
// every q.
func (h *Histogram) Percentile(q float64) uint64 {
	if h.total == 0 {
		return 0
	}
	rank := percentileRank(q, h.total)
	var cum uint64
	for i := range NumBuckets - 1 {
		cum += h.counts[i]
		if cum >= rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(NumBuckets - 1) // cum reaches total in the last bucket
}

// percentileRank returns ceil(q·total) clamped to [1, total], computed
// exactly in integer arithmetic. The float path this replaces — truncate
// q·float64(total), then compare the truncation against the product to
// decide the ceiling bump — goes wrong once q·total needs more than 53
// bits: both the product and the re-widened rank are rounded, so near 2^53
// observations the comparison can resolve the wrong way and move a
// percentile by a whole bucket. Here q is decomposed into its exact
// significand and exponent (every finite float64 is mant/2^shift with mant
// < 2^53), the product total·mant is formed in 128 bits, and the ceiling
// division by the power of two is a shift plus a remainder test — exact
// for every representable q and every total.
func percentileRank(q float64, total uint64) uint64 {
	if !(q > 0) { // also catches NaN
		return 1
	}
	if q >= 1 {
		return total
	}
	frac, exp := math.Frexp(q)       // q = frac·2^exp, frac ∈ [0.5, 1)
	mant := uint64(frac * (1 << 53)) // exact: frac has at most 53 significant bits
	shift := uint(53 - exp)          // q = mant/2^shift; q < 1 forces exp <= 0, so shift >= 53
	hi, lo := bits.Mul64(total, mant)
	// 0 < q < 1 and total >= 1, so the ceiling lies in [1, total].
	var rank uint64
	switch {
	case shift >= 128:
		rank = 1 // q < 2^-75, so q·total < 2^-11
	case shift >= 64:
		s := shift - 64 // < 64, so the mask shift below is in range
		rank = hi >> s
		if hi&(1<<s-1) != 0 || lo != 0 {
			rank++
		}
	default:
		rank = hi<<(64-shift) | lo>>shift
		if lo&(1<<shift-1) != 0 {
			rank++
		}
	}
	return rank
}
