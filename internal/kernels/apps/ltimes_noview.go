package apps

import "rajaperf/internal/kernels"

// LtimesNoView implements Apps_LTIMES_NOVIEW: the same moment update as
// LTIMES with hand-rolled index arithmetic instead of data views,
// quantifying view overhead.
type LtimesNoView struct {
	kernels.KernelBase
	phi, ell, psi []float64
	nz            int
}

func init() { kernels.Register(NewLtimesNoView) }

// NewLtimesNoView constructs the LTIMES_NOVIEW kernel.
func NewLtimesNoView() kernels.Kernel {
	return &LtimesNoView{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "LTIMES_NOVIEW",
		Group:       kernels.Apps,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *LtimesNoView) SetUp(rp kernels.RunParams) {
	k.phi, k.ell, k.psi, k.nz = ltSetUp(&k.KernelBase, rp)
}

// Run implements kernels.Kernel.
func (k *LtimesNoView) Run(v kernels.VariantID, rp kernels.RunParams) error {
	phi, ell, psi, nz := k.phi, k.ell, k.psi, k.nz
	zone := func(z int) {
		for m := 0; m < ltNumM; m++ {
			for g := 0; g < ltNumG; g++ {
				s := phi[(m*ltNumG+g)*nz+z]
				for d := 0; d < ltNumD; d++ {
					s += ell[m*ltNumD+d] * psi[(d*ltNumG+g)*nz+z]
				}
				phi[(m*ltNumG+g)*nz+z] = s
			}
		}
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariant(v, rp, nz,
			func(lo, hi int) {
				for z := lo; z < hi; z++ {
					zone(z)
				}
			},
			zone)
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(phi))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *LtimesNoView) TearDown() { k.phi, k.ell, k.psi = nil, nil, nil }
