package apps

import (
	"math"

	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// DelDotVec2D implements Apps_DEL_DOT_VEC_2D: the divergence of a velocity
// field on a 2-D staggered mesh, computed per zone from its four corner
// nodes through an indirection array.
type DelDotVec2D struct {
	kernels.KernelBase
	x, y, xdot, ydot []float64
	div              []float64
	zones            []int32
	d                int // zone-grid edge
}

func init() { kernels.Register(NewDelDotVec2D) }

// NewDelDotVec2D constructs the DEL_DOT_VEC_2D kernel.
func NewDelDotVec2D() kernels.Kernel {
	return &DelDotVec2D{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "DEL_DOT_VEC_2D",
		Group:       kernels.Apps,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *DelDotVec2D) SetUp(rp kernels.RunParams) {
	size := rp.EffectiveSize(k.Info())
	k.d = int(math.Sqrt(float64(size)))
	if k.d < 4 {
		k.d = 4
	}
	d := k.d
	np := (d + 1) * (d + 1)
	k.x = rp.Alloc(np)
	k.y = rp.Alloc(np)
	k.xdot = rp.Alloc(np)
	k.ydot = rp.Alloc(np)
	for p := 0; p < np && len(k.x) > 0; p++ {
		i := p % (d + 1)
		j := p / (d + 1)
		pert := 0.02 * float64(p%13-6) / 6.0
		k.x[p] = float64(i) + pert
		k.y[p] = float64(j) - pert
	}
	kernels.InitData(k.xdot, 1.0)
	kernels.InitData(k.ydot, 2.0)
	k.div = rp.Alloc(d * d)
	k.zones = rp.AllocI32(4 * d * d)
	for z := 0; z < d*d && len(k.zones) > 0; z++ {
		i := z % d
		j := z / d
		base := int32(i + j*(d+1))
		k.zones[4*z+0] = base
		k.zones[4*z+1] = base + 1
		k.zones[4*z+2] = base + int32(d) + 2
		k.zones[4*z+3] = base + int32(d) + 1
	}
	n := float64(d * d)
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * 16 * n,
		BytesWritten: 8 * n,
		Flops:        36 * n,
	})
	k.SetMix(kernels.Mix{
		Flops: 36, Loads: 16, Stores: 1, IntOps: 5,
		Pattern: kernels.AccessStrided, Reuse: 0.8,
		ILP:             3.5,
		WorkingSetBytes: 8 * 5 * n,
		FootprintKB:     3.0,
	})
}

// Run implements kernels.Kernel.
func (k *DelDotVec2D) Run(v kernels.VariantID, rp kernels.RunParams) error {
	x, y, xdot, ydot, div, zones := k.x, k.y, k.xdot, k.ydot, k.div, k.zones
	const half = 0.5
	const ptiny = 1e-25
	body := func(z int) {
		n1, n2, n3, n4 := zones[4*z], zones[4*z+1], zones[4*z+2], zones[4*z+3]
		xi := half * (x[n1] + x[n2] - x[n3] - x[n4])
		xj := half * (x[n4] + x[n1] - x[n2] - x[n3])
		yi := half * (y[n1] + y[n2] - y[n3] - y[n4])
		yj := half * (y[n4] + y[n1] - y[n2] - y[n3])
		fx := half * (xdot[n1] + xdot[n2] - xdot[n3] - xdot[n4])
		fy := half * (ydot[n1] + ydot[n2] - ydot[n3] - ydot[n4])
		gx := half * (xdot[n4] + xdot[n1] - xdot[n2] - xdot[n3])
		gy := half * (ydot[n4] + ydot[n1] - ydot[n2] - ydot[n3])
		rarea := 1.0 / (xi*yj - xj*yi + ptiny)
		dfxdx := rarea * (fx*yj - fy*xj)
		dfydy := rarea * (gy*xi - gx*yi)
		div[z] = dfxdx + dfydy
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariant(v, rp, k.d*k.d,
			func(lo, hi int) {
				for z := lo; z < hi; z++ {
					body(z)
				}
			},
			body,
			func(_ raja.Ctx, z int) { body(z) })
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(div))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *DelDotVec2D) TearDown() {
	k.x, k.y, k.xdot, k.ydot, k.div = nil, nil, nil, nil, nil
	k.zones = nil
}
