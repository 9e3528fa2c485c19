package tma

import (
	"math"
	"testing"
	"testing/quick"

	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
)

// mixFromSeed builds a bounded random-but-valid instruction mix.
func mixFromSeed(a, b, c, d, e uint8) kernels.Mix {
	return kernels.Mix{
		Flops:           float64(a%64) + 0.5,
		Loads:           float64(b % 16),
		Stores:          float64(c % 8),
		IntOps:          float64(d % 8),
		Branches:        float64(e%4) * 0.5,
		BrMissRate:      float64(a%11) / 20,
		Atomics:         float64(b % 3),
		Pattern:         kernels.AccessPattern(c % 4),
		Reuse:           float64(d%10) / 10,
		ILP:             1 + float64(e%5),
		WorkingSetBytes: math.Pow(10, 3+float64(a%6)),
		FootprintKB:     float64(b%80) + 0.2,
	}
}

// Property: any valid mix yields a TMA tuple of nonnegative fractions
// summing to one, positive time, and finite counters.
func TestQuickTupleValidity(t *testing.T) {
	md, _ := NewModel(machine.SPRDDR())
	f := func(a, b, c, d, e uint8) bool {
		mix := mixFromSeed(a, b, c, d, e)
		r := md.Analyze(mix, kernels.AnalyticMetrics{Flops: 1e6}, 1_000_000)
		sum := 0.0
		for _, v := range r.Metrics.Vector() {
			if v < -1e-12 || v > 1+1e-12 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		if !(r.SecondsPerRep > 0) || !(r.Counters["PAPI_TOT_CYC"] > 0) {
			return false
		}
		for _, v := range r.Counters {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: more memory bandwidth never makes any kernel slower, and never
// raises its memory-bound fraction.
func TestQuickBandwidthMonotonicity(t *testing.T) {
	ddr, _ := NewModel(machine.SPRDDR())
	hbm, _ := NewModel(machine.SPRHBM())
	f := func(a, b, c, d, e uint8) bool {
		mix := mixFromSeed(a, b, c, d, e)
		// Equalize non-bandwidth machine differences: both SPR models
		// share compute parameters, so only bandwidth (and memory
		// latency, slightly higher on HBM) differs. Allow a small
		// latency-driven tolerance.
		rd := ddr.Analyze(mix, kernels.AnalyticMetrics{}, 1_000_000)
		rh := hbm.Analyze(mix, kernels.AnalyticMetrics{}, 1_000_000)
		if rh.SecondsPerRep > rd.SecondsPerRep*1.35 {
			return false
		}
		return rh.Metrics.MemoryBound <= rd.Metrics.MemoryBound+0.30
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: adding flops to a mix never reduces modeled time.
func TestQuickFlopsMonotonicity(t *testing.T) {
	md, _ := NewModel(machine.SPRDDR())
	f := func(a, b, c, d, e uint8) bool {
		mix := mixFromSeed(a, b, c, d, e)
		r1 := md.Analyze(mix, kernels.AnalyticMetrics{}, 1_000_000)
		mix.Flops *= 4
		r2 := md.Analyze(mix, kernels.AnalyticMetrics{}, 1_000_000)
		return r2.SecondsPerRep >= r1.SecondsPerRep*0.999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: problem size scales time linearly (no hidden nonlinearity).
func TestQuickSizeLinearity(t *testing.T) {
	md, _ := NewModel(machine.SPRDDR())
	f := func(a, b, c, d, e uint8) bool {
		mix := mixFromSeed(a, b, c, d, e)
		r1 := md.Analyze(mix, kernels.AnalyticMetrics{}, 1_000_000)
		r2 := md.Analyze(mix, kernels.AnalyticMetrics{}, 4_000_000)
		// Subtract the constant dispatch overhead before comparing.
		t1 := r1.SecondsPerRep - 5e-6
		t2 := r2.SecondsPerRep - 5e-6
		if t1 <= 0 {
			return true
		}
		ratio := t2 / t1
		return ratio > 3.99 && ratio < 4.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
