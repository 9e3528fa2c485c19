package apps

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// EA dimensions: smaller basis, since assembly is O((D1D^3)^2 * Q1D^3) per
// element.
const (
	eaD1D = 3
	eaQ1D = 3
	eaD3  = eaD1D * eaD1D * eaD1D
	eaQ3  = eaQ1D * eaQ1D * eaQ1D
)

// Mass3DEA implements Apps_MASS3DEA: full element assembly of the
// high-order mass matrix, M_ij = sum_q B_qi op_q B_qj per element — dense
// quadratic-in-dofs work that makes it the group's most compute-saturated
// kernel.
type Mass3DEA struct {
	kernels.KernelBase
	op, mat []float64
	basis   []float64 // B_qi flattened (eaQ3 x eaD3)
	ne      int
}

func init() { kernels.Register(NewMass3DEA) }

// NewMass3DEA constructs the MASS3DEA kernel.
func NewMass3DEA() kernels.Kernel {
	return &Mass3DEA{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "MASS3DEA",
		Group:       kernels.Apps,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: 2,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Mass3DEA) SetUp(rp kernels.RunParams) {
	size := rp.EffectiveSize(k.Info())
	k.ne = size / (eaD3 * eaD3 / 4)
	if k.ne < 2 {
		k.ne = 2
	}
	k.op = rp.Alloc(k.ne * eaQ3)
	k.mat = rp.Alloc(k.ne * eaD3 * eaD3)
	kernels.InitData(k.op, 1.0)
	// Tensor-product basis values at quadrature points.
	k.basis = rp.Alloc(eaQ3 * eaD3)
	for q := 0; q < eaQ3 && len(k.basis) > 0; q++ {
		qx, qy, qz := q%eaQ1D, (q/eaQ1D)%eaQ1D, q/(eaQ1D*eaQ1D)
		for d := 0; d < eaD3; d++ {
			dx, dy, dz := d%eaD1D, (d/eaD1D)%eaD1D, d/(eaD1D*eaD1D)
			b := func(qq, dd int) float64 { return 0.3 + 0.1*float64((qq+1)*(dd+1)%5) }
			k.basis[q*eaD3+d] = b(qx, dx) * b(qy, dy) * b(qz, dz)
		}
	}
	fne := float64(k.ne)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * fne * float64(eaQ3+eaQ3*eaD3),
		BytesWritten: 8 * fne * float64(eaD3*eaD3),
		Flops:        3 * float64(eaD3*eaD3*eaQ3) * fne,
	})
	k.SetMix(feMix(3*float64(eaQ3), 64, 8*fne*float64(eaD3*eaD3)))
}

// Run implements kernels.Kernel.
func (k *Mass3DEA) Run(v kernels.VariantID, rp kernels.RunParams) error {
	op, mat, basis := k.op, k.mat, k.basis
	elem := func(e int) {
		oe := op[e*eaQ3 : (e+1)*eaQ3]
		me := mat[e*eaD3*eaD3 : (e+1)*eaD3*eaD3]
		for i := 0; i < eaD3; i++ {
			for j := 0; j < eaD3; j++ {
				s := 0.0
				for q := 0; q < eaQ3; q++ {
					s += basis[q*eaD3+i] * oe[q] * basis[q*eaD3+j]
				}
				me[i*eaD3+j] = s
			}
		}
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
	k.SetChecksum(kernels.ChecksumSlice(mat))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Mass3DEA) TearDown() { k.op, k.mat, k.basis = nil, nil, nil }
