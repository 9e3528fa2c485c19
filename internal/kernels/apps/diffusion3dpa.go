package apps

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Diffusion3DPA implements Apps_DIFFUSION3DPA: the matrix-free action of
// the high-order diffusion operator — gradient interpolation in three
// directions, pointwise scaling by the quadrature operator, and transpose
// projection (G^T D G per element).
type Diffusion3DPA struct {
	kernels.KernelBase
	x, y, op []float64
	ne       int
}

func init() { kernels.Register(NewDiffusion3DPA) }

// NewDiffusion3DPA constructs the DIFFUSION3DPA kernel.
func NewDiffusion3DPA() kernels.Kernel {
	return &Diffusion3DPA{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "DIFFUSION3DPA",
		Group:       kernels.Apps,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Diffusion3DPA) SetUp(rp kernels.RunParams) {
	k.x, k.y, k.op, k.ne = paSetUp(&k.KernelBase, rp, 3*paFlopsPerElement, 78)
}

// Run implements kernels.Kernel.
func (k *Diffusion3DPA) Run(v kernels.VariantID, rp kernels.RunParams) error {
	x, y, op := k.x, k.y, k.op
	elem := func(e int) {
		var gx, gy, gz [feQ3]float64
		xe := x[e*feD3 : (e+1)*feD3]
		ye := y[e*feD3 : (e+1)*feD3]
		oe := op[e*feQ3 : (e+1)*feQ3]
		contract3(&feG, &feB, &feB, xe, gx[:])
		contract3(&feB, &feG, &feB, xe, gy[:])
		contract3(&feB, &feB, &feG, xe, gz[:])
		for q := 0; q < feQ3; q++ {
			// Diagonal diffusion tensor at each quadrature point.
			gx[q] *= oe[q]
			gy[q] *= oe[q] * 1.1
			gz[q] *= oe[q] * 0.9
		}
		for i := range ye {
			ye[i] = 0
		}
		project3(&feG, &feB, &feB, gx[:], ye)
		project3(&feB, &feG, &feB, gy[:], ye)
		project3(&feB, &feB, &feG, gz[:], ye)
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariant(v, rp, k.ne,
			func(lo, hi int) {
				for e := lo; e < hi; e++ {
					elem(e)
				}
			},
			elem,
			func(_ raja.Ctx, e int) { elem(e) })
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(y))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Diffusion3DPA) TearDown() { k.x, k.y, k.op = nil, nil, nil }
