package service

import "fmt"

// Mass returns the theoretical probability of key k (for tests comparing
// empirical frequencies against the distribution).
func (z *Zipf) Mass(k uint64) float64 {
	if k >= z.n {
		panic(fmt.Sprintf("service: Zipf mass of key %d outside [0,%d)", k, z.n))
	}
	if k == 0 {
		return z.cum[0]
	}
	return z.cum[k] - z.cum[k-1]
}
