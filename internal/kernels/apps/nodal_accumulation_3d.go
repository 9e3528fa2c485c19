package apps

import (
	"rajaperf/internal/kernels"
	"rajaperf/internal/raja"
)

// NodalAccumulation3D implements Apps_NODAL_ACCUMULATION_3D: scatter an
// eighth of each zone's value to its eight corner nodes with atomic
// accumulation — the zone-to-node pattern of staggered-mesh hydro.
type NodalAccumulation3D struct {
	kernels.KernelBase
	mesh *boxMesh
	vol  []float64
	node []float64
}

func init() { kernels.Register(NewNodalAccumulation3D) }

// NewNodalAccumulation3D constructs the NODAL_ACCUMULATION_3D kernel.
func NewNodalAccumulation3D() kernels.Kernel {
	return &NodalAccumulation3D{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "NODAL_ACCUMULATION_3D",
		Group:       kernels.Apps,
		Features:    []kernels.Feature{kernels.FeatAtomic},
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: defaultReps,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *NodalAccumulation3D) SetUp(rp kernels.RunParams) {
	k.mesh = newBoxMesh(rp, rp.EffectiveSize(k.Info()))
	k.vol = rp.Alloc(k.mesh.Zones())
	k.node = rp.Alloc(k.mesh.Nodes())
	kernels.InitData(k.vol, 1.0)
	n := float64(k.mesh.Zones())
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * 9 * n,
		BytesWritten: 8 * 8 * n,
		Flops:        8 * n,
	})
	k.SetMix(kernels.Mix{
		// Corner walks are prefetchable multi-stream access.
		Flops: 8, Loads: 9, Stores: 0, Atomics: 8, IntOps: 8,
		Pattern: kernels.AccessUnit, Reuse: 0.85,
		ILP:             2,
		WorkingSetBytes: 8 * 2 * n,
		FootprintKB:     1.0,
	})
}

// Run implements kernels.Kernel.
func (k *NodalAccumulation3D) Run(v kernels.VariantID, rp kernels.RunParams) error {
	mesh, vol, node := k.mesh, k.vol, k.node
	for i := range node {
		node[i] = 0
	}
	body := func(z int) {
		val := 0.125 * vol[z]
		c := mesh.Corners(z)
		for j := 0; j < 8; j++ {
			raja.AtomicAddFloat64(&node[c[j]], val)
		}
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariant(v, rp, mesh.Zones(),
			func(lo, hi int) {
				for z := lo; z < hi; z++ {
					val := 0.125 * vol[z]
					c := mesh.Corners(z)
					for j := 0; j < 8; j++ {
						raja.AtomicAddFloat64(&node[c[j]], val)
					}
				}
			},
			body,
			func(_ raja.Ctx, z int) { body(z) })
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(node))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *NodalAccumulation3D) TearDown() { k.mesh, k.vol, k.node = nil, nil, nil }
