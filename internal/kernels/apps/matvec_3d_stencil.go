package apps

import (
	"math"

	"rajaperf/internal/kernels"
)

// Matvec3DStencil implements Apps_MATVEC_3D_STENCIL: a 27-point stencil
// matrix-vector product over a 3-D grid, the matrix stored as 27
// coefficient arrays. The paper notes its bottleneck is not memory
// bandwidth (Sec III-A).
type Matvec3DStencil struct {
	kernels.KernelBase
	coef [27][]float64
	x, b []float64
	d    int // interior grid edge
	dp   int // padded edge
}

func init() { kernels.Register(NewMatvec3DStencil) }

// NewMatvec3DStencil constructs the MATVEC_3D_STENCIL kernel.
func NewMatvec3DStencil() kernels.Kernel {
	return &Matvec3DStencil{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "MATVEC_3D_STENCIL",
		Group:       kernels.Apps,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Matvec3DStencil) SetUp(rp kernels.RunParams) {
	size := rp.EffectiveSize(k.Info())
	k.d = int(math.Cbrt(float64(size)))
	if k.d < 4 {
		k.d = 4
	}
	k.dp = k.d + 2
	points := k.d * k.d * k.d
	padded := k.dp * k.dp * k.dp
	for c := range k.coef {
		k.coef[c] = rp.Alloc(points)
		kernels.InitData(k.coef[c], 0.1*float64(c+1))
	}
	k.x = rp.Alloc(padded)
	k.b = rp.Alloc(points)
	kernels.InitData(k.x, 1.0)
	n := float64(points)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * 28 * n,
		BytesWritten: 8 * n,
		Flops:        54 * n,
	})
	k.SetMix(kernels.Mix{
		Flops: 54, Loads: 28, Stores: 1, IntOps: 10,
		Pattern: kernels.AccessUnit, Reuse: 0.85,
		ILP:             4,
		WorkingSetBytes: 8 * 29 * n,
		FootprintKB:     8.0,
	})
}

// Run implements kernels.Kernel. The parallel dimension is the grid plane.
func (k *Matvec3DStencil) Run(v kernels.VariantID, rp kernels.RunParams) error {
	d, dp := k.d, k.dp
	x, b := k.x, k.b
	coef := &k.coef
	plane := func(pi int) {
		for j := 0; j < d; j++ {
			for i := 0; i < d; i++ {
				zi := (pi*d+j)*d + i
				s := 0.0
				c := 0
				for dk := 0; dk < 3; dk++ {
					for dj := 0; dj < 3; dj++ {
						for di := 0; di < 3; di++ {
							xi := ((pi+dk)*dp+(j+dj))*dp + (i + di)
							s += coef[c][zi] * x[xi]
							c++
						}
					}
				}
				b[zi] = s
			}
		}
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariant(v, rp, d,
			func(lo, hi int) {
				for pi := lo; pi < hi; pi++ {
					plane(pi)
				}
			},
			plane)
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(b))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Matvec3DStencil) TearDown() {
	for c := range k.coef {
		k.coef[c] = nil
	}
	k.x, k.b = nil, nil
}
