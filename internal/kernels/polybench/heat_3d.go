package polybench

import (
	"math"

	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Heat3D implements Polybench_HEAT_3D: a seven-point heat-equation stencil
// on a cube, ping-ponging between two grids.
type Heat3D struct {
	kernels.KernelBase
	a, b []float64
	n    int // cube edge
}

func init() { kernels.Register(NewHeat3D) }

// NewHeat3D constructs the HEAT_3D kernel.
func NewHeat3D() kernels.Kernel {
	return &Heat3D{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "HEAT_3D",
		Group:       kernels.Polybench,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Heat3D) SetUp(rp kernels.RunParams) {
	size := rp.EffectiveSize(k.Info())
	k.n = int(math.Cbrt(float64(size) / 2))
	if k.n < 6 {
		k.n = 6
	}
	d := k.n
	k.a = rp.Alloc(d * d * d)
	k.b = rp.Alloc(d * d * d)
	kernels.InitData(k.a, 1.0)
	nd := float64(d * d * d)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * nd * jacobiSteps,
		BytesWritten: 8 * nd * jacobiSteps,
		Flops:        15 * nd * jacobiSteps,
	})
	mix := stencilMix(15, 7, 16*nd)
	mix.FootprintKB = 1.5
	k.SetMix(mix)
}

// Run implements kernels.Kernel. The parallel dimension is the interior
// plane.
func (k *Heat3D) Run(v kernels.VariantID, rp kernels.RunParams) error {
	d := k.n
	at := func(i, j, l int) int { return (i*d+j)*d + l }
	m := d - 2
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		src, dst := k.a, k.b
		for t := 0; t < jacobiSteps; t++ {
			plane := func(pi int) {
				i := pi + 1
				for j := 1; j < d-1; j++ {
					for l := 1; l < d-1; l++ {
						dst[at(i, j, l)] = 0.125*(src[at(i+1, j, l)]-2*src[at(i, j, l)]+src[at(i-1, j, l)]) +
							0.125*(src[at(i, j+1, l)]-2*src[at(i, j, l)]+src[at(i, j-1, l)]) +
							0.125*(src[at(i, j, l+1)]-2*src[at(i, j, l)]+src[at(i, j, l-1)]) +
							src[at(i, j, l)]
					}
				}
			}
			err := kernels.RunVariant(v, rp, m,
				func(lo, hi int) {
					for pi := lo; pi < hi; pi++ {
						plane(pi)
					}
				},
				plane,
				func(_ raja.Ctx, pi int) { plane(pi) })
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
func (k *Heat3D) TearDown() { k.a, k.b = nil, nil }
