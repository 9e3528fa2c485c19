// Package apps implements the Apps group of the RAJA Performance Suite:
// kernels extracted from LLNL multiphysics applications — staggered-mesh
// hydrodynamics operations (ENERGY, PRESSURE, VOL3D, DEL_DOT_VEC_2D),
// discrete-ordinates transport (LTIMES), high-order finite-element partial
// assembly (MASS3DPA, MASS3DEA, DIFFUSION3DPA, CONVECTION3DPA, EDGE3D),
// stencil matvecs, nodal/zonal accumulations, and an FIR filter.
//
// The FEM partial-assembly kernels carry the group's largest instruction
// footprints; the paper's clustering places them in the frontend-bound
// cluster 1, while the streaming mesh kernels land in the memory-bound
// clusters (Fig 7).
package apps

import (
	"math"

	"rajaperf/internal/kernels"
)

const (
	defaultSize = 100_000
	defaultReps = 3
)

// boxMesh is a structured 3-D zone mesh with node connectivity, the
// substrate for the suite's mesh kernels.
type boxMesh struct {
	nx, ny, nz int // zones per dimension
	npx, npy   int // nodes per dimension in x, y
	nodeList   []int32
}

// newBoxMesh builds a mesh with roughly the given number of zones. A
// model-only run gets the dimensions without the connectivity.
func newBoxMesh(rp kernels.RunParams, zones int) *boxMesh {
	e := int(math.Cbrt(float64(zones)))
	if e < 3 {
		e = 3
	}
	m := &boxMesh{nx: e, ny: e, nz: e, npx: e + 1, npy: e + 1}
	m.nodeList = rp.AllocI32(8 * m.Zones())
	for z := 0; z < m.Zones() && len(m.nodeList) > 0; z++ {
		i := z % m.nx
		j := (z / m.nx) % m.ny
		k := z / (m.nx * m.ny)
		base := int32(i + j*m.npx + k*m.npx*m.npy)
		np := int32(m.npx)
		npp := int32(m.npx * m.npy)
		c := m.nodeList[8*z : 8*z+8]
		c[0] = base
		c[1] = base + 1
		c[2] = base + np
		c[3] = base + np + 1
		c[4] = base + npp
		c[5] = base + npp + 1
		c[6] = base + npp + np
		c[7] = base + npp + np + 1
	}
	return m
}

// Zones returns the zone count.
func (m *boxMesh) Zones() int { return m.nx * m.ny * m.nz }

// Nodes returns the node count.
func (m *boxMesh) Nodes() int { return m.npx * m.npy * (m.nz + 1) }

// Corners returns the 8 node indices of zone z.
func (m *boxMesh) Corners(z int) []int32 { return m.nodeList[8*z : 8*z+8] }

// nodeCoords fills x, y, z coordinate arrays for a unit-spaced mesh with a
// mild deterministic perturbation so volume computations are nontrivial.
func (m *boxMesh) nodeCoords(rp kernels.RunParams) (x, y, z []float64) {
	n := m.Nodes()
	x = rp.Alloc(n)
	y = rp.Alloc(n)
	z = rp.Alloc(n)
	for p := 0; p < len(x); p++ {
		i := p % m.npx
		j := (p / m.npx) % m.npy
		k := p / (m.npx * m.npy)
		d := 0.03 * float64(p%17-8) / 8.0
		x[p] = float64(i) + d
		y[p] = float64(j) - d
		z[p] = float64(k) + 0.5*d
	}
	return x, y, z
}

// feMix is the instruction-mix shape of a high-order FEM partial-assembly
// kernel: FLOP-dense element-local tensor contractions with a large body.
func feMix(flopsPerIter, footprintKB, wsBytes float64) kernels.Mix {
	return kernels.Mix{
		Flops: flopsPerIter, Loads: flopsPerIter / 2.5, Stores: 1,
		Pattern: kernels.AccessUnit, Reuse: 0.9,
		ILP:             5,
		WorkingSetBytes: wsBytes,
		FootprintKB:     footprintKB,
	}
}
