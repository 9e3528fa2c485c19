package basic

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// NestedInit implements Basic_NESTED_INIT: a triply nested initialization
// array[i,j,k] = 1e-8 * i*j*k over a 3D box, exercising nested-loop
// dispatch.
type NestedInit struct {
	kernels.KernelBase
	array      []float64
	ni, nj, nk int
}

func init() { kernels.Register(NewNestedInit) }

// NewNestedInit constructs the NESTED_INIT kernel.
func NewNestedInit() kernels.Kernel {
	return &NestedInit{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "NESTED_INIT",
		Group:       kernels.Basic,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *NestedInit) SetUp(rp kernels.RunParams) {
	size := rp.EffectiveSize(k.Info())
	// Fixed inner dimensions, outer sized to reach the problem size, as
	// in the suite.
	k.ni, k.nj = 50, 50
	k.nk = size / (k.ni * k.nj)
	if k.nk < 1 {
		k.nk = 1
	}
	total := k.ni * k.nj * k.nk
	k.array = rp.Alloc(total)
	n := float64(total)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    0,
		BytesWritten: 8 * n,
		Flops:        3 * n,
	})
	mix := unitMix(3, 0, 1, 4, 1, total)
	mix.IntOps = 4 // 3D index arithmetic
	k.SetMix(mix)
}

// Run implements kernels.Kernel.
func (k *NestedInit) Run(v kernels.VariantID, rp kernels.RunParams) error {
	array, ni, nj, nk := k.array, k.ni, k.nj, k.nk
	// The outer (k) dimension is the parallel one; inner j, i loops run
	// per work unit, matching the suite's nested policies.
	planeBody := func(kk int) {
		for j := 0; j < nj; j++ {
			for i := 0; i < ni; i++ {
				array[i+ni*(j+nj*kk)] = 1e-8 * float64(i) * float64(j) * float64(kk)
			}
		}
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariant(v, rp, nk,
			func(lo, hi int) {
				for kk := lo; kk < hi; kk++ {
					planeBody(kk)
				}
			},
			planeBody,
			func(_ raja.Ctx, kk int) { planeBody(kk) })
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(k.array))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *NestedInit) TearDown() { k.array = nil }
