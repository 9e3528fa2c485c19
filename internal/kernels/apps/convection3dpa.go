package apps

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Convection3DPA implements Apps_CONVECTION3DPA: the matrix-free action of
// the high-order convection operator — velocity-weighted gradient at
// quadrature points projected back with the value basis (B^T (v . G) per
// element).
type Convection3DPA struct {
	kernels.KernelBase
	x, y, op []float64
	ne       int
}

func init() { kernels.Register(NewConvection3DPA) }

// NewConvection3DPA constructs the CONVECTION3DPA kernel.
func NewConvection3DPA() kernels.Kernel {
	return &Convection3DPA{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "CONVECTION3DPA",
		Group:       kernels.Apps,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Convection3DPA) SetUp(rp kernels.RunParams) {
	k.x, k.y, k.op, k.ne = paSetUp(&k.KernelBase, rp, 2*paFlopsPerElement, 55)
}

// Run implements kernels.Kernel.
func (k *Convection3DPA) Run(v kernels.VariantID, rp kernels.RunParams) error {
	x, y, op := k.x, k.y, k.op
	elem := func(e int) {
		var gx, gy, gz, vq [feQ3]float64
		xe := x[e*feD3 : (e+1)*feD3]
		ye := y[e*feD3 : (e+1)*feD3]
		oe := op[e*feQ3 : (e+1)*feQ3]
		contract3(&feG, &feB, &feB, xe, gx[:])
		contract3(&feB, &feG, &feB, xe, gy[:])
		contract3(&feB, &feB, &feG, xe, gz[:])
		for q := 0; q < feQ3; q++ {
			// Velocity components derived from the quadrature data.
			vq[q] = oe[q]*gx[q] + 0.5*oe[q]*gy[q] + 0.25*oe[q]*gz[q]
		}
		for i := range ye {
			ye[i] = 0
		}
		project3(&feB, &feB, &feB, vq[:], ye)
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
func (k *Convection3DPA) TearDown() { k.x, k.y, k.op = nil, nil, nil }
