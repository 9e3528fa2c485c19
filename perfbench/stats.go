package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile for it to be valid: a p90 needs at least 100 samples.
const minBeyond = 10

// median returns the median of xs (the mean of the two middle values for
// an even count), or NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1), or
// NaN for no samples. With nearest rank, p90 of 100 samples is the 90th
// smallest.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sorted(xs)[rank(len(xs), p)-1]
}

// beyondCount is the number of samples beyond the nearest-rank
// p-quantile of n samples: p90 of 100 samples has exactly 10 beyond it.
func beyondCount(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// rank is the 1-based nearest rank of the p-quantile of n > 0 samples.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n))), 1), n)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
