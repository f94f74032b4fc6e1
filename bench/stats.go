package main

import (
	"math"
	"sort"
)

// The estimator. Every cell is repeated R times and its time is the MINIMUM
// over the repetitions: on a shared 2-vCPU VM the disturbances (steal,
// neighbours in the cache, a GC cycle landing in the call) only ever add
// time, so the minimum converges on the undisturbed cost while the median
// follows whatever the neighbours did during this process's lifetime. A
// workload's time is the sum of its cells' minima. The median and the
// inter-quartile range of the repetitions are carried beside it for the
// reader and are never gated.

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// minOf returns the smallest value (NaN for an empty slice).
func minOf(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// median is the exact sample median: the middle value, or the mean of the
// two middle values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), because that is the rule the driver applies to the
// ten runs of a workload. Fewer than two values have no quartiles; the
// single value (or NaN) is returned for all three.
func quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) < 2 {
		x := median(v)
		return x, x, x
	}
	s := sorted(v)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// iqr is the distance between the first and third quartile.
func iqr(v []float64) float64 {
	q1, _, q3 := quartiles(v)
	return q3 - q1
}

// spread is the inter-quartile range as a share of the median: the
// repeatability figure the driver holds against a metric's bound.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	return math.Abs(iqr(v) / m)
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return math.NaN()
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}
