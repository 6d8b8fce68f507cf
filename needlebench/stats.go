package main

import (
	"math"
	"sort"
)

// tailLevels are the candidate tail percentiles, highest first.
var tailLevels = []struct {
	name string
	q    float64
}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}}

// minBeyond is how many samples must lie beyond a tail percentile before it
// may be reported.
const minBeyond = 10

// rank is the 1-based nearest-rank position of the q-quantile of n
// samples: ceil(q*n), at least 1.
func rank(q float64, n int) int {
	return max(int(math.Ceil(q*float64(n)-1e-9)), 1)
}

// beyond is how many of n samples rank after the q-quantile.
func beyond(q float64, n int) int { return n - rank(q, n) }

// tailLevel picks the highest of p99.9/p99/p90 that has at least minBeyond
// of n samples beyond it. It falls back to p50 when even p90 has too few
// samples (n < 100).
func tailLevel(n int) (name string, q float64) {
	for _, l := range tailLevels {
		if beyond(l.q, n) >= minBeyond {
			return l.name, l.q
		}
	}
	return "p50", 0.5
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(q, len(xs))-1]
}

// median returns the median of xs (sorted in place), averaging the middle
// pair for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
