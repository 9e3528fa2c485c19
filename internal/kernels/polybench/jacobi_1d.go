package polybench

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// jacobiSteps is the number of time steps per rep.
const jacobiSteps = 4

// Jacobi1D implements Polybench_JACOBI_1D: a three-point averaging stencil
// ping-ponging between two vectors.
type Jacobi1D struct {
	kernels.KernelBase
	a, b []float64
	n    int
}

func init() { kernels.Register(NewJacobi1D) }

// NewJacobi1D constructs the JACOBI_1D kernel.
func NewJacobi1D() kernels.Kernel {
	return &Jacobi1D{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "JACOBI_1D",
		Group:       kernels.Polybench,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Jacobi1D) SetUp(rp kernels.RunParams) {
	k.n = rp.EffectiveSize(k.Info()) / 2
	if k.n < 8 {
		k.n = 8
	}
	k.a = rp.Alloc(k.n)
	k.b = rp.Alloc(k.n)
	kernels.InitData(k.a, 1.0)
	nd := float64(k.n)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * nd * jacobiSteps,
		BytesWritten: 8 * nd * jacobiSteps,
		Flops:        3 * nd * jacobiSteps,
	})
	k.SetMix(stencilMix(3, 3, 16*nd))
}

// Run implements kernels.Kernel.
func (k *Jacobi1D) Run(v kernels.VariantID, rp kernels.RunParams) error {
	m := k.n - 2
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		src, dst := k.a, k.b
		for t := 0; t < jacobiSteps; t++ {
			body := func(i int) { dst[i+1] = (src[i] + src[i+1] + src[i+2]) / 3.0 }
			err := kernels.RunVariant(v, rp, m,
				func(lo, hi int) {
					for i := lo + 1; i < hi+1; i++ {
						dst[i] = (src[i-1] + src[i] + src[i+1]) / 3.0
					}
				},
				body,
				func(_ raja.Ctx, i int) { body(i) })
			if err != nil {
				return k.Unsupported(v)
			}
			src, dst = dst, src
		}
	}
	// jacobiSteps is even, so the final state is back in a.
	k.SetChecksum(kernels.ChecksumSlice(k.a))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Jacobi1D) TearDown() { k.a, k.b = nil, nil }
