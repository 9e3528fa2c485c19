package polybench

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Jacobi2D implements Polybench_JACOBI_2D: a five-point averaging stencil
// ping-ponging between two square grids.
type Jacobi2D struct {
	kernels.KernelBase
	a, b []float64
	n    int // grid edge
}

func init() { kernels.Register(NewJacobi2D) }

// NewJacobi2D constructs the JACOBI_2D kernel.
func NewJacobi2D() kernels.Kernel {
	return &Jacobi2D{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "JACOBI_2D",
		Group:       kernels.Polybench,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Jacobi2D) SetUp(rp kernels.RunParams) {
	k.n = edge2D(rp.EffectiveSize(k.Info()), 2)
	d := k.n
	k.a = rp.Alloc(d * d)
	k.b = rp.Alloc(d * d)
	kernels.InitData(k.a, 1.0)
	nd := float64(d * d)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * nd * jacobiSteps,
		BytesWritten: 8 * nd * jacobiSteps,
		Flops:        5 * nd * jacobiSteps,
	})
	k.SetMix(stencilMix(5, 5, 16*nd))
}

// Run implements kernels.Kernel. The parallel dimension is the interior
// row.
func (k *Jacobi2D) Run(v kernels.VariantID, rp kernels.RunParams) error {
	d := k.n
	m := d - 2
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		src, dst := k.a, k.b
		for t := 0; t < jacobiSteps; t++ {
			row := func(ri int) {
				i := ri + 1
				for j := 1; j < d-1; j++ {
					dst[i*d+j] = 0.2 * (src[i*d+j] + src[i*d+j-1] +
						src[i*d+j+1] + src[(i-1)*d+j] + src[(i+1)*d+j])
				}
			}
			err := kernels.RunVariant(v, rp, m,
				func(lo, hi int) {
					for ri := lo; ri < hi; ri++ {
						row(ri)
					}
				},
				row,
				func(_ raja.Ctx, ri int) { row(ri) })
			if err != nil {
				return k.Unsupported(v)
			}
			src, dst = dst, src
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(k.a))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Jacobi2D) TearDown() { k.a, k.b = nil, nil }
