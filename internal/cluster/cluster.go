// Package cluster implements agglomerative hierarchical clustering with
// the Ward minimum-variance merge strategy over Euclidean distance — the
// method the paper applies to kernel top-down tuples (Sec IV), including
// the distance-threshold flat cut (1.4 in the paper) and a text
// dendrogram rendering of Fig 6.
package cluster

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"rajaperf/internal/raja"
)

// Merge records one agglomeration step: clusters A and B (indices into the
// implicit tree: leaves are 0..n-1, the i-th merge creates node n+i)
// joined at the given Ward distance into a cluster of Size leaves.
type Merge struct {
	A, B     int
	Distance float64
	Size     int
}

// Linkage is the full merge tree of one clustering run.
type Linkage struct {
	N      int // number of observations (leaves)
	Merges []Merge
	labels []string
}

// Ward clusters the observation vectors with Ward linkage on Euclidean
// distance and returns the merge tree. Labels name the observations for
// dendrogram rendering; pass nil for index labels. All vectors must share
// one dimensionality.
func Ward(vectors [][]float64, labels []string) (*Linkage, error) {
	n := len(vectors)
	if n == 0 {
		return nil, fmt.Errorf("cluster: no observations")
	}
	dim := len(vectors[0])
	for i, v := range vectors {
		if len(v) != dim {
			return nil, fmt.Errorf("cluster: observation %d has dimension %d, want %d", i, len(v), dim)
		}
	}
	if labels == nil {
		labels = make([]string, n)
		for i := range labels {
			labels[i] = fmt.Sprintf("obs%d", i)
		}
	}
	if len(labels) != n {
		return nil, fmt.Errorf("cluster: %d labels for %d observations", len(labels), n)
	}

	// Active clusters tracked by centroid and size; Ward distance via
	// the Lance-Williams centroid formula:
	// d(A,B)^2 = (2*|A|*|B|/(|A|+|B|)) * ||c_A - c_B||^2.
	active := make([]wardNode, n)
	for i := range active {
		active[i] = wardNode{id: i, size: 1, centroid: append([]float64(nil), vectors[i]...)}
	}

	link := &Linkage{N: n, labels: append([]string(nil), labels...)}
	next := n
	for len(active) > 1 {
		bi, bj, best := closestPair(active)
		a, b := active[bi], active[bj]
		merged := wardNode{
			id:       next,
			size:     a.size + b.size,
			centroid: make([]float64, dim),
		}
		for k := 0; k < dim; k++ {
			merged.centroid[k] = (float64(a.size)*a.centroid[k] +
				float64(b.size)*b.centroid[k]) / float64(merged.size)
		}
		link.Merges = append(link.Merges, Merge{
			A: a.id, B: b.id, Distance: math.Sqrt(best), Size: merged.size,
		})
		next++
		// Remove bj first (higher index), then bi.
		active = append(active[:bj], active[bj+1:]...)
		active[bi] = merged
	}
	return link, nil
}

// wardNode is one active cluster during agglomeration.
type wardNode struct {
	id       int
	size     int
	centroid []float64
}

// pairSearchThreshold is the active-cluster count below which the
// closest-pair scan stays serial: under it the O(k^2) sweep is cheaper
// than a fan-out.
const pairSearchThreshold = 96

// closestPair returns the indices and squared Ward distance of the
// nearest active pair. Large fronts fan the row scan across the raja
// pool; each lane keeps a local argmin and the reduction applies the
// same (distance, i, j) lexicographic tie-break as the serial loop, so
// the result is identical for any worker count.
func closestPair(active []wardNode) (int, int, float64) {
	k := len(active)
	rowScan := func(i int) (int, float64) {
		bj, best := -1, math.Inf(1)
		for j := i + 1; j < k; j++ {
			d := wardDist(active[i].size, active[j].size,
				active[i].centroid, active[j].centroid)
			if d < best {
				best, bj = d, j
			}
		}
		return bj, best
	}
	if k < pairSearchThreshold {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < k-1; i++ {
			if j, d := rowScan(i); d < best {
				best, bi, bj = d, i, j
			}
		}
		return bi, bj, best
	}

	type argmin struct {
		i, j int
		d    float64
	}
	workers := runtime.GOMAXPROCS(0)
	locals := make([]argmin, workers)
	lanes := raja.Default().StaticChunks(workers, k-1, func(w, lo, hi int) {
		lm := argmin{i: -1, j: -1, d: math.Inf(1)}
		for i := lo; i < hi; i++ {
			if j, d := rowScan(i); d < lm.d {
				lm = argmin{i: i, j: j, d: d}
			}
		}
		locals[w] = lm
	})
	bi, bj, best := -1, -1, math.Inf(1)
	for _, lm := range locals[:lanes] {
		// Chunks are contiguous and ascending in i, so strict < already
		// prefers the lexicographically smallest pair among ties across
		// workers — matching the serial scan exactly.
		if lm.j >= 0 && lm.d < best {
			best, bi, bj = lm.d, lm.i, lm.j
		}
	}
	return bi, bj, best
}

func wardDist(na, nb int, ca, cb []float64) float64 {
	d2 := 0.0
	for k := range ca {
		d := ca[k] - cb[k]
		d2 += d * d
	}
	return 2 * float64(na) * float64(nb) / float64(na+nb) * d2
}

// CutByDistance assigns each leaf a flat cluster ID by cutting the merge
// tree at the given distance threshold: merges with Distance < threshold
// stay joined. Cluster IDs are dense, ordered by the smallest leaf index
// in each cluster (matching scipy's fcluster relabeling closely enough
// for stable tests).
func (l *Linkage) CutByDistance(threshold float64) []int {
	parent := make([]int, l.N+len(l.Merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i, m := range l.Merges {
		if m.Distance < threshold {
			node := l.N + i
			ra, rb := find(m.A), find(m.B)
			parent[ra] = node
			parent[rb] = node
		}
	}
	// Dense relabel by first appearance.
	ids := make([]int, l.N)
	seen := map[int]int{}
	for i := 0; i < l.N; i++ {
		r := find(i)
		id, ok := seen[r]
		if !ok {
			id = len(seen)
			seen[r] = id
		}
		ids[i] = id
	}
	return ids
}

// NumClusters returns the flat cluster count at a threshold.
func (l *Linkage) NumClusters(threshold float64) int {
	ids := l.CutByDistance(threshold)
	max := -1
	for _, id := range ids {
		if id > max {
			max = id
		}
	}
	return max + 1
}

// Dendrogram renders the merge tree as indented text, deepest merges last,
// the textual analog of Fig 6.
func (l *Linkage) Dendrogram() string {
	var b strings.Builder
	var render func(id int, depth int)
	render = func(id, depth int) {
		indent := strings.Repeat("  ", depth)
		if id < l.N {
			fmt.Fprintf(&b, "%s- %s\n", indent, l.labels[id])
			return
		}
		m := l.Merges[id-l.N]
		fmt.Fprintf(&b, "%s+ d=%.4f (n=%d)\n", indent, m.Distance, m.Size)
		render(m.A, depth+1)
		render(m.B, depth+1)
	}
	if len(l.Merges) == 0 {
		for i := 0; i < l.N; i++ {
			fmt.Fprintf(&b, "- %s\n", l.labels[i])
		}
		return b.String()
	}
	render(l.N+len(l.Merges)-1, 0)
	return b.String()
}
