package apps

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// LTIMES dimensions: discrete-ordinates directions, moments, groups.
const (
	ltNumD = 64
	ltNumM = 25
	ltNumG = 32
)

// Ltimes implements Apps_LTIMES: the discrete-ordinates moment update
// phi(m,g,z) += ell(m,d) * psi(d,g,z), indexed through multi-dimensional
// views as in LLNL transport codes.
type Ltimes struct {
	kernels.KernelBase
	phi, ell, psi []float64
	nz            int
}

func init() { kernels.Register(NewLtimes) }

// NewLtimes constructs the LTIMES kernel.
func NewLtimes() kernels.Kernel {
	return &Ltimes{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "LTIMES",
		Group:       kernels.Apps,
		Features:    []kernels.Feature{kernels.FeatView},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// ltSetUp allocates the shared LTIMES data; both view and no-view kernels
// use it.
func ltSetUp(k *kernels.KernelBase, rp kernels.RunParams) (phi, ell, psi []float64, nz int) {
	nz = rp.EffectiveSize(k.Info()) / (ltNumG * ltNumM)
	if nz < 4 {
		nz = 4
	}
	phi = rp.Alloc(ltNumM * ltNumG * nz)
	ell = rp.Alloc(ltNumM * ltNumD)
	psi = rp.Alloc(ltNumD * ltNumG * nz)
	kernels.InitData(ell, 1.0)
	kernels.InitData(psi, 2.0)
	fz := float64(nz)
	flops := 2.0 * float64(ltNumD*ltNumM*ltNumG) * fz
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * (float64(ltNumD*ltNumG)*fz + float64(ltNumM*ltNumG)*fz),
		BytesWritten: 8 * float64(ltNumM*ltNumG) * fz,
		Flops:        flops,
	})
	k.SetMix(kernels.Mix{
		// Per phi element: a dot product over directions.
		Flops: 2 * ltNumD, Loads: ltNumD + 1, Stores: 1,
		Pattern: kernels.AccessUnit, Reuse: 0.85,
		ILP:             3,
		WorkingSetBytes: 8 * float64(ltNumM*ltNumG+ltNumD*ltNumG) * fz,
		FootprintKB:     1.8,
	})
	return phi, ell, psi, nz
}

// SetUp implements kernels.Kernel.
func (k *Ltimes) SetUp(rp kernels.RunParams) {
	k.phi, k.ell, k.psi, k.nz = ltSetUp(&k.KernelBase, rp)
}

// Run implements kernels.Kernel. The parallel dimension is the zone.
func (k *Ltimes) Run(v kernels.VariantID, rp kernels.RunParams) error {
	nz := k.nz
	phiV := raja.NewView3(k.phi, ltNumG, nz) // (m, g, z)
	ellV := raja.NewView2(k.ell, ltNumD)     // (m, d)
	psiV := raja.NewView3(k.psi, ltNumG, nz) // (d, g, z)
	zone := func(z int) {
		for m := 0; m < ltNumM; m++ {
			for g := 0; g < ltNumG; g++ {
				s := phiV.At(m, g, z)
				for d := 0; d < ltNumD; d++ {
					s += ellV.At(m, d) * psiV.At(d, g, z)
				}
				phiV.Set(m, g, z, s)
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
			zone,
			func(_ raja.Ctx, z int) { zone(z) })
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(k.phi))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Ltimes) TearDown() { k.phi, k.ell, k.psi = nil, nil, nil }
