package apps

import "rajaperf/internal/kernels"

// ZonalAccumulation3D implements Apps_ZONAL_ACCUMULATION_3D: gather the
// eight corner-node values of each zone into a zonal sum — the node-to-zone
// dual of NODAL_ACCUMULATION_3D, race-free and atomic-free.
type ZonalAccumulation3D struct {
	kernels.KernelBase
	mesh *boxMesh
	node []float64
	zone []float64
}

func init() { kernels.Register(NewZonalAccumulation3D) }

// NewZonalAccumulation3D constructs the ZONAL_ACCUMULATION_3D kernel.
func NewZonalAccumulation3D() kernels.Kernel {
	return &ZonalAccumulation3D{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "ZONAL_ACCUMULATION_3D",
		Group:       kernels.Apps,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *ZonalAccumulation3D) SetUp(rp kernels.RunParams) {
	k.mesh = newBoxMesh(rp, rp.EffectiveSize(k.Info()))
	k.node = rp.Alloc(k.mesh.Nodes())
	k.zone = rp.Alloc(k.mesh.Zones())
	kernels.InitData(k.node, 1.0)
	n := float64(k.mesh.Zones())
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * 9 * n,
		BytesWritten: 8 * n,
		Flops:        8 * n,
	})
	k.SetMix(kernels.Mix{
		// Corner walks are prefetchable multi-stream access.
		Flops: 8, Loads: 9, Stores: 1, IntOps: 8,
		Pattern: kernels.AccessUnit, Reuse: 0.85,
		ILP:             4,
		WorkingSetBytes: 8 * 2 * n,
		FootprintKB:     0.8,
	})
}

// Run implements kernels.Kernel.
func (k *ZonalAccumulation3D) Run(v kernels.VariantID, rp kernels.RunParams) error {
	mesh, node, zone := k.mesh, k.node, k.zone
	body := func(z int) {
		c := mesh.Corners(z)
		s := 0.0
		for j := 0; j < 8; j++ {
			s += node[c[j]]
		}
		zone[z] = s
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariant(v, rp, mesh.Zones(),
			func(lo, hi int) {
				for z := lo; z < hi; z++ {
					body(z)
				}
			},
			body)
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(zone))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *ZonalAccumulation3D) TearDown() { k.mesh, k.node, k.zone = nil, nil, nil }
