// Package cluster implements agglomerative hierarchical clustering with
// the Ward minimum-variance merge strategy over Euclidean distance — the
// method the paper applies to kernel top-down tuples (Sec IV), including
// the distance-threshold flat cut (1.4 in the paper) and a text
// dendrogram rendering of Fig 6.
package cluster

import (
	"fmt"
	"math"
	"strings"
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
// one dimensionality and have finite coordinates.
//
// Each step merges the closest pair, the first in input order on ties,
// and the merged cluster takes its first member's place. Every place
// caches its nearest later neighbour (Müllner's generic algorithm,
// arXiv:1109.2378), so a merge rescans only the rows whose partner it
// consumed: O(n^2) on typical inputs, with a full pair scan's merges.
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
		for k, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("cluster: observation %d has non-finite coordinate %d (%v)", i, k, x)
			}
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

	// Position i holds one cluster while live: its tree node id, size and
	// centroid. A merge keeps the first position and retires the second,
	// so live positions stay in the order of a list that drops merged-away
	// clusters. nn[i] is i's nearest live later position (smallest index
	// on ties) at squared Ward distance dist[i]; -1 when none is left.
	ids := make([]int, n)
	sizes := make([]int, n)
	cents := make([]float64, n*dim)
	live := make([]bool, n)
	nn := make([]int, n)
	dist := make([]float64, n)
	for i, v := range vectors {
		ids[i], sizes[i], live[i] = i, 1, true
		copy(cents[i*dim:], v)
	}
	cent := func(i int) []float64 { return cents[i*dim : (i+1)*dim] }
	rescan := func(i int) {
		bj, best := -1, 0.0
		si, ci := sizes[i], cent(i)
		for j := i + 1; j < n; j++ {
			if !live[j] {
				continue
			}
			if d := wardDist(si, sizes[j], ci, cent(j)); bj < 0 || d < best {
				bj, best = j, d
			}
		}
		nn[i], dist[i] = bj, best
	}
	for i := range nn {
		rescan(i)
	}

	link := &Linkage{N: n, labels: append([]string(nil), labels...)}
	for next := n; next < 2*n-1; next++ {
		a := -1
		for i, j := range nn {
			if live[i] && j >= 0 && (a < 0 || dist[i] < dist[a]) {
				a = i
			}
		}
		b := nn[a]
		size := sizes[a] + sizes[b]
		ca, cb := cent(a), cent(b)
		for k := range ca {
			ca[k] = (float64(sizes[a])*ca[k] + float64(sizes[b])*cb[k]) / float64(size)
		}
		link.Merges = append(link.Merges, Merge{
			A: ids[a], B: ids[b], Distance: math.Sqrt(dist[a]), Size: size,
		})
		ids[a], sizes[a], live[b] = next, size, false

		// Distances between untouched clusters stand. A row whose partner
		// was merged rescans; any other row before a sees one new
		// distance, to a; a row after a cannot see a at all.
		for i := range nn {
			switch {
			case !live[i]:
			case i == a || nn[i] == a || nn[i] == b:
				rescan(i)
			case i < a:
				if d := wardDist(sizes[i], size, cent(i), ca); d < dist[i] || d == dist[i] && a < nn[i] {
					nn[i], dist[i] = a, d
				}
			}
		}
	}
	return link, nil
}

// wardDist is the squared Ward distance between clusters of na and nb
// members with centroids ca and cb: 2*na*nb/(na+nb) * ||ca - cb||^2.
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
