package apps

import "rajaperf/internal/kernels"

// Edge basis dimensions: 12 edge functions, 4^3 quadrature points.
const (
	edgeBasisN = 12
	edgeQ1D    = 4
	edgeQ3     = edgeQ1D * edgeQ1D * edgeQ1D
)

// Edge3D implements Apps_EDGE3D: per-element assembly of the 12x12 edge
// (Nedelec) basis matrix by quadrature over each hexahedron. It has the
// suite's highest arithmetic intensity — the paper annotates it at 84
// TFLOPS on EPYC-MI250X, with a 118.6x speedup over SPR-DDR (Fig 9/10).
type Edge3D struct {
	kernels.KernelBase
	mesh    *boxMesh
	x, y, z []float64
	mat     []float64
}

func init() { kernels.Register(NewEdge3D) }

// NewEdge3D constructs the EDGE3D kernel.
func NewEdge3D() kernels.Kernel {
	return &Edge3D{KernelBase: kernels.NewKernelBase(kernels.Info{
		Name:        "EDGE3D",
		Group:       kernels.Apps,
		Complexity:  kernels.CxN,
		DefaultSize: defaultSize,
		DefaultReps: 2,
		Variants:    kernels.AllVariants,
	})}
}

// SetUp implements kernels.Kernel.
func (k *Edge3D) SetUp(rp kernels.RunParams) {
	// Size counts matrix entries produced; each element yields 144.
	zones := rp.EffectiveSize(k.Info()) / (edgeBasisN * edgeBasisN)
	if zones < 8 {
		zones = 8
	}
	k.mesh = newBoxMesh(rp, zones)
	k.x, k.y, k.z = k.mesh.nodeCoords(rp)
	k.mat = rp.Alloc(k.mesh.Zones() * edgeBasisN * edgeBasisN)
	n := float64(k.mesh.Zones())
	flopsPerElt := float64(edgeQ3 * (edgeBasisN*3 + 2*edgeBasisN*edgeBasisN))
	k.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * 24 * n,
		BytesWritten: 8 * float64(edgeBasisN*edgeBasisN) * n,
		Flops:        flopsPerElt * n,
	})
	mix := feMix(flopsPerElt/float64(edgeBasisN*edgeBasisN), 70,
		8*n*float64(edgeBasisN*edgeBasisN+24))
	// The interleaved basis evaluation defeats vectorization: EDGE3D runs
	// scalar on CPUs, which is why the paper records its extreme 118.6x
	// GPU speedup (Fig 9 annotation).
	mix.Pattern = kernels.AccessIndirect
	mix.ILP = 3
	// The 12x12 accumulation lives entirely in registers; the paper
	// measures 84 TFLOPS on the MI250X node (Fig 10d annotation).
	mix.GPUFlopEff = 6
	k.SetMix(mix)
}

// edgeElem assembles the 12x12 edge mass matrix of one hexahedron.
func edgeElem(x, y, z []float64, c []int32, me []float64) {
	for i := range me {
		me[i] = 0
	}
	// Element extents approximate the Jacobian scale.
	hx := x[c[1]] - x[c[0]]
	hy := y[c[2]] - y[c[0]]
	hz := z[c[4]] - z[c[0]]
	jac := hx*hy*hz/8.0 + 1e-12
	var phi [edgeBasisN]float64
	for q := 0; q < edgeQ3; q++ {
		// Quadrature point in reference coordinates.
		qx := float64(q%edgeQ1D)/(edgeQ1D-1)*2 - 1
		qy := float64((q/edgeQ1D)%edgeQ1D)/(edgeQ1D-1)*2 - 1
		qz := float64(q/(edgeQ1D*edgeQ1D))/(edgeQ1D-1)*2 - 1
		// Twelve edge basis functions of the reference hex: four
		// x-directed, four y-directed, four z-directed tangential
		// functions.
		for e := 0; e < 4; e++ {
			sy := 1.0 - 2.0*float64(e&1)
			sz := 1.0 - 2.0*float64((e>>1)&1)
			phi[e] = 0.125 * (1 + sy*qy) * (1 + sz*qz) * hx
			phi[4+e] = 0.125 * (1 + sy*qx) * (1 + sz*qz) * hy
			phi[8+e] = 0.125 * (1 + sy*qx) * (1 + sz*qy) * hz
		}
		w := jac
		for i := 0; i < edgeBasisN; i++ {
			pw := phi[i] * w
			for j := 0; j < edgeBasisN; j++ {
				me[i*edgeBasisN+j] += pw * phi[j]
			}
		}
	}
}

// Run implements kernels.Kernel.
func (k *Edge3D) Run(v kernels.VariantID, rp kernels.RunParams) error {
	mesh, x, y, z, mat := k.mesh, k.x, k.y, k.z, k.mat
	elem := func(zi int) {
		edgeElem(x, y, z, mesh.Corners(zi),
			mat[zi*edgeBasisN*edgeBasisN:(zi+1)*edgeBasisN*edgeBasisN])
	}
	for r := 0; r < rp.EffectiveReps(k.Info()); r++ {
		err := kernels.RunVariant(v, rp, mesh.Zones(),
			func(lo, hi int) {
				for zi := lo; zi < hi; zi++ {
					elem(zi)
				}
			},
			elem)
		if err != nil {
			return k.Unsupported(v)
		}
	}
	k.SetChecksum(kernels.ChecksumSlice(mat))
	return nil
}

// TearDown implements kernels.Kernel.
func (k *Edge3D) TearDown() {
	k.mesh, k.x, k.y, k.z, k.mat = nil, nil, nil, nil, nil
}
