package apps

import "rajaperf/internal/kernels"

// Vol3D implements Apps_VOL3D: hexahedral zone volumes from the eight
// corner coordinates, the suite's heaviest streaming mesh computation
// (~72 flops per zone). The paper's Sec V-D lists it among the FLOP-heavy
// kernels.
type Vol3D struct {
	kernels.KernelBase
	mesh    *boxMesh
	x, y, z []float64
	vol     []float64
}

func init() { kernels.Register(NewVol3D) }

// NewVol3D constructs the VOL3D kernel.
func NewVol3D() kernels.Kernel {
	return &Vol3D{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "VOL3D",
		Group:       kernels.Apps,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Vol3D) SetUp(rp kernels.RunParams) {
	k.mesh = newBoxMesh(rp, rp.EffectiveSize(k.Info()))
	k.x, k.y, k.z = k.mesh.nodeCoords(rp)
	k.vol = rp.Alloc(k.mesh.Zones())
	n := float64(k.mesh.Zones())
	k.SetMetrics(kernels.AnalyticMetrics{
		// Each node is shared by eight zones, so the coordinate
		// arrays stream through once: three doubles per zone.
		BytesRead:    8 * 3 * n,
		BytesWritten: 8 * n,
		Flops:        72 * n,
	})
	k.SetMix(kernels.Mix{
		Flops: 72, Loads: 24, Stores: 1, IntOps: 8,
		Pattern: kernels.AccessStrided, Reuse: 0.88,
		ILP:             3.5,
		WorkingSetBytes: 8 * 4 * n,
		FootprintKB:     6.0,
	})
}

// zoneVolume computes the volume of one hexahedron via the triple-product
// decomposition used in the suite.
func zoneVolume(x, y, z []float64, c []int32) float64 {
	// The mesh stores corners in binary (x,y,z-bit) order; the volume
	// formula expects ring order on the bottom and top faces.
	x0, x1, x2, x3 := x[c[0]], x[c[1]], x[c[3]], x[c[2]]
	x4, x5, x6, x7 := x[c[4]], x[c[5]], x[c[7]], x[c[6]]
	y0, y1, y2, y3 := y[c[0]], y[c[1]], y[c[3]], y[c[2]]
	y4, y5, y6, y7 := y[c[4]], y[c[5]], y[c[7]], y[c[6]]
	z0, z1, z2, z3 := z[c[0]], z[c[1]], z[c[3]], z[c[2]]
	z4, z5, z6, z7 := z[c[4]], z[c[5]], z[c[7]], z[c[6]]

	tp := func(ax, ay, az, bx, by, bz, cx, cy, cz float64) float64 {
		return ax*(by*cz-bz*cy) + ay*(bz*cx-bx*cz) + az*(bx*cy-by*cx)
	}
	v1 := tp(x1-x0+x6-x7, y1-y0+y6-y7, z1-z0+z6-z7,
		x3-x0, y3-y0, z3-z0, x4-x0, y4-y0, z4-z0)
	v2 := tp(x6-x1, y6-y1, z6-z1,
		x2-x1+x7-x4, y2-y1+y7-y4, z2-z1+z7-z4, x5-x1, y5-y1, z5-z1)
	v3 := tp(x6-x3, y6-y3, z6-z3,
		x7-x3, y7-y3, z7-z3, x2-x3+x5-x0, y2-y3+y5-y0, z2-z3+z5-z0)
	return (v1 + v2 + v3) / 12.0
}

// Run implements kernels.Kernel.
func (k *Vol3D) Run(v kernels.VariantID, rp kernels.RunParams) error {
	mesh, x, y, z, vol := k.mesh, k.x, k.y, k.z, k.vol
	body := func(zi int) { vol[zi] = zoneVolume(x, y, z, mesh.Corners(zi)) }
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariant(v, rp, mesh.Zones(),
			func(lo, hi int) {
				for zi := lo; zi < hi; zi++ {
					vol[zi] = zoneVolume(x, y, z, mesh.Corners(zi))
				}
			},
			body)
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(vol))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Vol3D) TearDown() { k.mesh, k.x, k.y, k.z, k.vol = nil, nil, nil, nil, nil }
