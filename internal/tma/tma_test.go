package tma

import (
	"math"
	"testing"

	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
)

// streamMix is a TRIAD-shaped kernel: 2 flops, 2 loads, 1 store per
// element, unit stride, streaming working set far beyond cache.
func streamMix() kernels.Mix {
	return kernels.Mix{
		Flops: 2, Loads: 2, Stores: 1,
		Pattern:         kernels.AccessUnit,
		ILP:             4,
		WorkingSetBytes: 768e6,
		FootprintKB:     0.3,
	}
}

// gemmMix is a tiled matrix-multiply-shaped kernel: FMA-dense with high
// cache reuse.
func gemmMix() kernels.Mix {
	return kernels.Mix{
		Flops: 2, Loads: 2, Stores: 0.01,
		Pattern: kernels.AccessUnit, Reuse: 0.97,
		ILP:             2,
		WorkingSetBytes: 24e6,
		FootprintKB:     2,
	}
}

func TestMetricsSumToOne(t *testing.T) {
	for _, m := range []*machine.Machine{machine.SPRDDR(), machine.SPRHBM()} {
		md, err := NewModel(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, mix := range []kernels.Mix{streamMix(), gemmMix(),
			{Flops: 10, Loads: 3, Stores: 1, Branches: 2, BrMissRate: 0.2,
				Pattern: kernels.AccessRandom, WorkingSetBytes: 1e9}} {
			r := md.Analyze(mix, kernels.AnalyticMetrics{}, 32_000_000)
			v := r.Metrics.Vector()
			sum := 0.0
			for _, x := range v {
				if x < -1e-12 || x > 1+1e-12 {
					t.Fatalf("%s: component out of range: %v", m, v)
				}
				sum += x
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%s: TMA tuple sums to %v, want 1", m, sum)
			}
		}
	}
}

func TestStreamKernelIsMemoryBoundOnDDR(t *testing.T) {
	md, _ := NewModel(machine.SPRDDR())
	r := md.Analyze(streamMix(), kernels.AnalyticMetrics{}, 32_000_000)
	if r.Metrics.Dominant() != "memory_bound" {
		t.Fatalf("stream kernel on SPR-DDR dominant = %s (%v), want memory_bound",
			r.Metrics.Dominant(), r.Metrics)
	}
	if r.Metrics.MemoryBound < 0.6 {
		t.Errorf("stream memory bound = %.3f, want > 0.6", r.Metrics.MemoryBound)
	}
}

func TestHBMReducesMemoryBound(t *testing.T) {
	ddr, _ := NewModel(machine.SPRDDR())
	hbm, _ := NewModel(machine.SPRHBM())
	const n = 32_000_000
	mix := streamMix()
	rd := ddr.Analyze(mix, kernels.AnalyticMetrics{}, n)
	rh := hbm.Analyze(mix, kernels.AnalyticMetrics{}, n)
	if rh.Metrics.MemoryBound >= rd.Metrics.MemoryBound {
		t.Errorf("HBM memory bound %.3f !< DDR %.3f",
			rh.Metrics.MemoryBound, rd.Metrics.MemoryBound)
	}
	// Paper Fig 7/9: memory-bound kernels speed up ~2-2.6x on SPR-HBM.
	speedup := rd.SecondsPerRep / rh.SecondsPerRep
	if speedup < 1.5 || speedup > 5 {
		t.Errorf("stream HBM speedup = %.2f, want within [1.5, 5]", speedup)
	}
}

func TestComputeKernelNotMemoryBound(t *testing.T) {
	md, _ := NewModel(machine.SPRDDR())
	r := md.Analyze(gemmMix(), kernels.AnalyticMetrics{}, 32_000_000)
	if r.Metrics.MemoryBound > 0.3 {
		t.Errorf("GEMM-like memory bound = %.3f, want < 0.3 (%v)",
			r.Metrics.MemoryBound, r.Metrics)
	}
	if r.Metrics.Retiring+r.Metrics.CoreBound < 0.5 {
		t.Errorf("GEMM-like retiring+core = %.3f, want > 0.5 (%v)",
			r.Metrics.Retiring+r.Metrics.CoreBound, r.Metrics)
	}
	// And HBM should barely help it (paper: clusters 1/3 gain < 1x).
	hbm, _ := NewModel(machine.SPRHBM())
	rh := hbm.Analyze(gemmMix(), kernels.AnalyticMetrics{}, 32_000_000)
	speedup := r.SecondsPerRep / rh.SecondsPerRep
	if speedup > 1.3 {
		t.Errorf("compute-bound HBM speedup = %.2f, want ~1", speedup)
	}
}

func TestBranchyKernelShowsBadSpeculation(t *testing.T) {
	md, _ := NewModel(machine.SPRDDR())
	mix := kernels.Mix{
		Flops: 4, Loads: 2, Stores: 1, Branches: 1, BrMissRate: 0.25,
		Pattern: kernels.AccessUnit, WorkingSetBytes: 8e6, Reuse: 0.5,
	}
	r := md.Analyze(mix, kernels.AnalyticMetrics{}, 32_000_000)
	if r.Metrics.BadSpeculation < 0.05 {
		t.Errorf("branchy kernel bad speculation = %.3f, want > 0.05 (%v)",
			r.Metrics.BadSpeculation, r.Metrics)
	}
}

func TestBigBodyKernelShowsFrontendPressure(t *testing.T) {
	md, _ := NewModel(machine.SPRDDR())
	small := kernels.Mix{Flops: 30, Loads: 8, Stores: 0.5, ILP: 4,
		Pattern: kernels.AccessUnit, Reuse: 0.9, WorkingSetBytes: 1e6, FootprintKB: 1}
	big := small
	big.FootprintKB = 64
	rs := md.Analyze(small, kernels.AnalyticMetrics{}, 32_000_000)
	rb := md.Analyze(big, kernels.AnalyticMetrics{}, 32_000_000)
	if rb.Metrics.FrontendBound <= rs.Metrics.FrontendBound {
		t.Errorf("frontend bound %.3f !> %.3f for larger instruction footprint",
			rb.Metrics.FrontendBound, rs.Metrics.FrontendBound)
	}
	if rb.Metrics.FrontendBound < 0.08 {
		t.Errorf("big-body frontend bound = %.3f, want > 0.08", rb.Metrics.FrontendBound)
	}
}

func TestNewModelRejectsGPUMachines(t *testing.T) {
	if _, err := NewModel(machine.P9V100()); err == nil {
		t.Error("NewModel must reject GPU machines")
	}
}

func TestCountersPopulated(t *testing.T) {
	md, _ := NewModel(machine.SPRDDR())
	r := md.Analyze(streamMix(), kernels.AnalyticMetrics{Flops: 64e6}, 32_000_000)
	for _, key := range []string{"PAPI_TOT_INS", "PAPI_TOT_CYC", "slots", "dram_bytes"} {
		if r.Counters[key] <= 0 {
			t.Errorf("counter %s = %v, want > 0", key, r.Counters[key])
		}
	}
	if r.SecondsPerRep <= 0 || r.Counters["PAPI_TOT_CYC"] <= 0 {
		t.Error("modeled time must be positive")
	}
}

func TestHierarchyShape(t *testing.T) {
	h := Hierarchy()
	if len(h.Children) != 4 {
		t.Fatalf("level 1 has %d categories, want 4", len(h.Children))
	}
	var backend *Node
	for i := range h.Children {
		if h.Children[i].Name == "Backend Bound" {
			backend = &h.Children[i]
		}
	}
	if backend == nil || len(backend.Children) != 2 {
		t.Fatal("Backend Bound must split into Core Bound and Memory Bound")
	}
}

func TestDominantAndString(t *testing.T) {
	m := Metrics{MemoryBound: 0.9, Retiring: 0.1}
	if m.Dominant() != "memory_bound" {
		t.Errorf("Dominant = %s", m.Dominant())
	}
	if m.BackendBound() != 0.9 {
		t.Errorf("BackendBound = %v", m.BackendBound())
	}
	if m.String() == "" {
		t.Error("String empty")
	}
}
