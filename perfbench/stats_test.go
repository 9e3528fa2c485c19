package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		want   float64
		beyond int
		valid  bool
	}{
		{100, 0.9, 90, 10, true},
		{99, 0.9, 90, 9, false},
		{250, 0.9, 225, 25, true},
		{20, 0.5, 10, 10, true},
		{19, 0.5, 10, 9, false},
		{1, 0.9, 1, 0, false},
	}
	for _, c := range cases {
		v, beyond := percentile(seq(c.n), c.p), beyondCount(c.n, c.p)
		if v != c.want || beyond != c.beyond || (beyond >= minBeyond) != c.valid {
			t.Errorf("%d samples, p%.0f: value %v with %d beyond; want %v with %d (valid %v)",
				c.n, 100*c.p, v, beyond, c.want, c.beyond, c.valid)
		}
	}
	if v, beyond := percentile(nil, 0.9), beyondCount(0, 0.9); !math.IsNaN(v) || beyond != 0 {
		t.Errorf("no samples: value %v, %d beyond", v, beyond)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}
