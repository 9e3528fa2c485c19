// Package comm implements the Comm group of the RAJA Performance Suite:
// halo-exchange buffer packing/unpacking patterns from distributed-memory
// mesh applications, run over the channel-based MPI substrate in package
// simmpi. The fused variants batch the many short per-face/per-variable
// pack loops through a raja.WorkGroup, the suite's mechanism for
// amortizing kernel-launch overhead (the paper calls the unfused kernels
// launch-overhead bound on GPUs, Sec V-C).
//
// The decomposition is a 1-D periodic ring: x-faces travel over the
// message substrate while y/z faces wrap locally, preserving the pack →
// communicate → unpack data flow of the 26-neighbor original with a
// deterministic small-rank topology.
package comm

import (
	"math"

	"rajaperf/internal/kernels"
)

// haloVars is the number of mesh variables exchanged, as in the suite's
// default.
const haloVars = 3

// face identifiers: -x, +x, -y, +y, -z, +z.
const numFaces = 6

// haloDomain is one rank's portion of the mesh: haloVars variables on a
// (d+2)^3 grid (interior d^3 plus one ghost layer), with per-face pack and
// unpack index lists.
type haloDomain struct {
	e       int // padded edge: interior edge d plus two ghost layers
	vars    [haloVars][]float64
	pack    [numFaces][]int32 // interior indices serialized per face
	unpack  [numFaces][]int32 // ghost indices filled per face
	buffers [haloVars][numFaces][]float64
}

// newHaloDomain builds a domain with roughly the given interior volume.
// A model-only run gets the dimensions alone: only Run reads the
// variables, buffers and index lists, and haloMetrics needs just the size.
func newHaloDomain(rp kernels.RunParams, size, rank int) *haloDomain {
	d := int(math.Cbrt(float64(size)))
	if d < 3 {
		d = 3
	}
	h := &haloDomain{e: d + 2}
	if rp.ModelOnly {
		return h
	}
	total := h.e * h.e * h.e
	for v := 0; v < haloVars; v++ {
		h.vars[v] = rp.Alloc(total)
		kernels.InitData(h.vars[v], float64(v+1)+0.1*float64(rank))
	}
	idx := func(i, j, k int) int32 { return int32((k*h.e+j)*h.e + i) }
	// Build face lists: pack from the interior boundary layer, unpack
	// into the ghost layer.
	for f := 0; f < numFaces; f++ {
		area := d * d
		h.pack[f] = make([]int32, 0, area)
		h.unpack[f] = make([]int32, 0, area)
		for b := 0; b < d; b++ {
			for a := 0; a < d; a++ {
				ai, bi := a+1, b+1 // interior offsets
				switch f {
				case 0:
					h.pack[f] = append(h.pack[f], idx(1, ai, bi))
					h.unpack[f] = append(h.unpack[f], idx(0, ai, bi))
				case 1:
					h.pack[f] = append(h.pack[f], idx(d, ai, bi))
					h.unpack[f] = append(h.unpack[f], idx(d+1, ai, bi))
				case 2:
					h.pack[f] = append(h.pack[f], idx(ai, 1, bi))
					h.unpack[f] = append(h.unpack[f], idx(ai, 0, bi))
				case 3:
					h.pack[f] = append(h.pack[f], idx(ai, d, bi))
					h.unpack[f] = append(h.unpack[f], idx(ai, d+1, bi))
				case 4:
					h.pack[f] = append(h.pack[f], idx(ai, bi, 1))
					h.unpack[f] = append(h.unpack[f], idx(ai, bi, 0))
				case 5:
					h.pack[f] = append(h.pack[f], idx(ai, bi, d))
					h.unpack[f] = append(h.unpack[f], idx(ai, bi, d+1))
				}
			}
		}
		for v := 0; v < haloVars; v++ {
			h.buffers[v][f] = rp.Alloc(area)
		}
	}
	return h
}

// opposite returns the face index paired with f in an exchange.
func opposite(f int) int { return f ^ 1 }

// checksum digests every variable of the domain.
func (h *haloDomain) checksum() float64 {
	s := 0.0
	for v := 0; v < haloVars; v++ {
		s += kernels.ChecksumSlice(h.vars[v])
	}
	return s
}

// haloMetrics fills the analytic metrics and mix shared by the Comm
// kernels: surface traffic over numDomains domains, with the given MPI
// share and launch count.
func haloMetrics(kb *kernels.KernelBase, size, numDomains int, mpiFrac, launches float64) {
	d := int(math.Cbrt(float64(size)))
	if d < 3 {
		d = 3
	}
	surface := float64(numFaces*d*d) * haloVars * float64(numDomains)
	kb.SetMetrics(kernels.AnalyticMetrics{
		BytesRead:    8 * 2 * surface, // pack reads + unpack reads
		BytesWritten: 8 * 2 * surface, // buffer writes + ghost writes
		Flops:        0,
	})
	kb.SetMix(kernels.Mix{
		Loads: 2, Stores: 2, IntOps: 3,
		Pattern: kernels.AccessStrided, Reuse: 0.2,
		ILP:             4,
		WorkingSetBytes: 8 * surface,
		FootprintKB:     1.0,
		MPIFraction:     mpiFrac,
		LaunchesPerRep:  launches,
	})
}

// haloInfo builds the Info shared by Comm kernels.
func haloInfo(name string, variants []kernels.VariantID, feats ...kernels.Feature) kernels.Info {
	return kernels.Info{
		Name:        name,
		Group:       kernels.Comm,
		Features:    append([]kernels.Feature{kernels.FeatMPI}, feats...),
		Complexity:  kernels.CxN23,
		DefaultSize: 27_000,
		DefaultReps: 3,
		Variants:    variants,
	}
}
