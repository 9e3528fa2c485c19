package lcals

import (
	"math"

	"rajaperf/internal/kernels"
)

// Hydro2D implements Lcals_HYDRO_2D: the 2-D implicit hydrodynamics
// fragment — three stencil loops over interior points of a square grid.
type Hydro2D struct {
	kernels.KernelBase
	za, zb, zm, zp, zq, zr, zu, zv, zz []float64
	zrout, zzout                       []float64
	jn, kn                             int
	s, t                               float64
}

func init() { kernels.Register(NewHydro2D) }

// NewHydro2D constructs the HYDRO_2D kernel.
func NewHydro2D() kernels.Kernel {
	return &Hydro2D{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "HYDRO_2D",
		Group:       kernels.Lcals,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: 3,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel. Problem size is total grid points.
func (k *Hydro2D) SetUp(rp kernels.RunParams) {
	size := rp.EffectiveSize(k.Info())
	edge := int(math.Sqrt(float64(size)))
	if edge < 4 {
		edge = 4
	}
	k.jn, k.kn = edge, edge
	total := k.jn * k.kn
	alloc := func(factor float64) []float64 {
		a := rp.Alloc(total)
		kernels.InitData(a, factor)
		return a
	}
	k.za = rp.Alloc(total)
	k.zb = rp.Alloc(total)
	k.zm = alloc(1.0)
	k.zp = alloc(2.0)
	k.zq = alloc(3.0)
	k.zr = alloc(4.0)
	k.zu = rp.Alloc(total)
	k.zv = rp.Alloc(total)
	k.zz = alloc(5.0)
	k.zrout = rp.Alloc(total)
	k.zzout = rp.Alloc(total)
	k.s, k.t = 0.0041, 0.0037
	n := float64(total)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * 18 * n,
		BytesWritten: 8 * 6 * n,
		Flops:        28 * n,
	})
	mix := unitMix(28, 18, 6, 3, 11, total)
	mix.FootprintKB = 3.0
	k.SetMix(mix)
}

// Run implements kernels.Kernel. The parallel dimension is the grid row.
func (k *Hydro2D) Run(v kernels.VariantID, rp kernels.RunParams) error {
	jn, kn := k.jn, k.kn
	za, zb, zm, zp, zq := k.za, k.zb, k.zm, k.zp, k.zq
	zr, zu, zv, zz := k.zr, k.zu, k.zv, k.zz
	zrout, zzout := k.zrout, k.zzout
	s, t := k.s, k.t
	at := func(kk, j int) int { return kk*jn + j }

	row1 := func(kk int) {
		for j := 1; j < jn-1; j++ {
			za[at(kk, j)] = (zp[at(kk+1, j-1)] + zq[at(kk+1, j-1)] -
				zp[at(kk-1, j-1)] - zq[at(kk-1, j-1)]) *
				(zr[at(kk, j)] + zr[at(kk, j-1)]) /
				(zm[at(kk, j-1)] + zm[at(kk+1, j-1)] + 1e-30)
			zb[at(kk, j)] = (zp[at(kk, j-1)] + zq[at(kk, j-1)] -
				zp[at(kk, j)] - zq[at(kk, j)]) *
				(zr[at(kk, j)] + zr[at(kk-1, j)]) /
				(zm[at(kk, j)] + zm[at(kk, j-1)] + 1e-30)
		}
	}
	row2 := func(kk int) {
		for j := 1; j < jn-1; j++ {
			zu[at(kk, j)] += s * (za[at(kk, j)]*(zz[at(kk, j)]-zz[at(kk, j+1)]) -
				za[at(kk, j-1)]*(zz[at(kk, j)]-zz[at(kk, j-1)]) -
				zb[at(kk, j)]*(zz[at(kk, j)]-zz[at(kk-1, j)]) +
				zb[at(kk+1, j)]*(zz[at(kk, j)]-zz[at(kk+1, j)]))
			zv[at(kk, j)] += s * (za[at(kk, j)]*(zr[at(kk, j)]-zr[at(kk, j+1)]) -
				za[at(kk, j-1)]*(zr[at(kk, j)]-zr[at(kk, j-1)]) -
				zb[at(kk, j)]*(zr[at(kk, j)]-zr[at(kk-1, j)]) +
				zb[at(kk+1, j)]*(zr[at(kk, j)]-zr[at(kk+1, j)]))
		}
	}
	row3 := func(kk int) {
		for j := 1; j < jn-1; j++ {
			zrout[at(kk, j)] = zr[at(kk, j)] + t*zu[at(kk, j)]
			zzout[at(kk, j)] = zz[at(kk, j)] + t*zv[at(kk, j)]
		}
	}

	m := kn - 2 // interior rows, mapped to kk = i+1
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		for _, row := range []func(int){row1, row2, row3} {
			row := row
			err := kernels.RunVariant(v, rp, m,
				func(lo, hi int) {
					for i := lo; i < hi; i++ {
						row(i + 1)
					}
				},
				func(i int) { row(i + 1) })
			if err != nil {
				return k.Unsupported(v)
			}
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(k.zrout) + kernels.ChecksumSlice(k.zzout))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Hydro2D) TearDown() {
	k.za, k.zb, k.zm, k.zp, k.zq = nil, nil, nil, nil, nil
	k.zr, k.zu, k.zv, k.zz = nil, nil, nil, nil
	k.zrout, k.zzout = nil, nil
}
