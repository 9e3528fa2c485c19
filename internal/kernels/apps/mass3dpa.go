package apps

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// Mass3DPA implements Apps_MASS3DPA: the matrix-free (partial assembly)
// action of the high-order mass operator, B^T D B per element via
// sum-factorized tensor contractions (from MFEM).
type Mass3DPA struct {
	kernels.KernelBase
	x, y, op []float64
	ne       int
}

func init() { kernels.Register(NewMass3DPA) }

// NewMass3DPA constructs the MASS3DPA kernel.
func NewMass3DPA() kernels.Kernel {
	return &Mass3DPA{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "MASS3DPA",
		Group:       kernels.Apps,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// paSetUp allocates element vectors for a PA kernel at the run's size
// (interpreted as total dofs).
func paSetUp(kb *kernels.KernelBase, rp kernels.RunParams, flopsPerElt float64, footprintKB float64) (x, y, op []float64, ne int) {
	ne = rp.EffectiveSize(kb.Info()) / feD3
	if ne < 2 {
		ne = 2
	}
	x = rp.Alloc(ne * feD3)
	y = rp.Alloc(ne * feD3)
	op = rp.Alloc(ne * feQ3)
	kernels.InitData(x, 1.0)
	kernels.InitData(op, 2.0)
	fne := float64(ne)
	kb.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * fne * float64(feD3+feQ3),
		BytesWritten: 8 * fne * feD3,
		Flops:        flopsPerElt * fne,
	})
	kb.SetMix(feMix(flopsPerElt/feD3, footprintKB, 8*fne*float64(2*feD3+feQ3)))
	return x, y, op, ne
}

// SetUp implements kernels.Kernel.
func (k *Mass3DPA) SetUp(rp kernels.RunParams) {
	k.x, k.y, k.op, k.ne = paSetUp(&k.KernelBase, rp, paFlopsPerElement, 42)
}

// Run implements kernels.Kernel. The parallel dimension is the element.
func (k *Mass3DPA) Run(v kernels.VariantID, rp kernels.RunParams) error {
	x, y, op := k.x, k.y, k.op
	elem := func(e int) {
		var xq [feQ3]float64
		xe := x[e*feD3 : (e+1)*feD3]
		ye := y[e*feD3 : (e+1)*feD3]
		oe := op[e*feQ3 : (e+1)*feQ3]
		contract3(&feB, &feB, &feB, xe, xq[:])
		for q := 0; q < feQ3; q++ {
			xq[q] *= oe[q]
		}
		for i := range ye {
			ye[i] = 0
		}
		project3(&feB, &feB, &feB, xq[:], ye)
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
func (k *Mass3DPA) TearDown() { k.x, k.y, k.op = nil, nil, nil }
