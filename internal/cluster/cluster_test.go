package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// fourBlobs returns 12 points in 4 well-separated 3-D blobs.
func fourBlobs() ([][]float64, []string) {
	centers := [][]float64{{0, 0, 0}, {10, 0, 0}, {0, 10, 0}, {0, 0, 10}}
	var vecs [][]float64
	var labels []string
	for ci, c := range centers {
		for j := 0; j < 3; j++ {
			off := 0.1 * float64(j)
			vecs = append(vecs, []float64{c[0] + off, c[1] - off, c[2] + off})
			labels = append(labels, string(rune('A'+ci))+string(rune('0'+j)))
		}
	}
	return vecs, labels
}

func TestWardRecoversSeparatedBlobs(t *testing.T) {
	vecs, labels := fourBlobs()
	link, err := Ward(vecs, labels)
	if err != nil {
		t.Fatal(err)
	}
	if got := link.NumClusters(5.0); got != 4 {
		t.Fatalf("NumClusters(5.0) = %d, want 4", got)
	}
	members := map[int][]string{}
	for leaf, id := range link.CutByDistance(5.0) {
		members[id] = append(members[id], labels[leaf])
	}
	for id, ms := range members {
		prefix := ms[0][:1]
		for _, m := range ms {
			if m[:1] != prefix {
				t.Errorf("cluster %d mixes blobs: %v", id, ms)
			}
		}
		if len(ms) != 3 {
			t.Errorf("cluster %d has %d members, want 3: %v", id, len(ms), ms)
		}
	}
}

func TestThresholdExtremes(t *testing.T) {
	vecs, labels := fourBlobs()
	link, _ := Ward(vecs, labels)
	if got := link.NumClusters(1e9); got != 1 {
		t.Errorf("huge threshold: %d clusters, want 1", got)
	}
	if got := link.NumClusters(1e-12); got != len(vecs) {
		t.Errorf("tiny threshold: %d clusters, want %d", got, len(vecs))
	}
}

func TestMergeDistancesMonotone(t *testing.T) {
	// Ward merge distances are monotonically nondecreasing.
	vecs, labels := fourBlobs()
	link, _ := Ward(vecs, labels)
	for i := 1; i < len(link.Merges); i++ {
		if link.Merges[i].Distance < link.Merges[i-1].Distance-1e-12 {
			t.Fatalf("merge %d distance %.6f < previous %.6f",
				i, link.Merges[i].Distance, link.Merges[i-1].Distance)
		}
	}
	last := link.Merges[len(link.Merges)-1]
	if last.Size != len(vecs) {
		t.Errorf("final merge size = %d, want %d", last.Size, len(vecs))
	}
}

func TestDendrogramContainsAllLabels(t *testing.T) {
	vecs, labels := fourBlobs()
	link, _ := Ward(vecs, labels)
	d := link.Dendrogram()
	for _, l := range labels {
		if !strings.Contains(d, l) {
			t.Errorf("dendrogram missing label %s", l)
		}
	}
}

func TestWardErrors(t *testing.T) {
	if _, err := Ward(nil, nil); err == nil {
		t.Error("empty input must error")
	}
	if _, err := Ward([][]float64{{1, 2}, {1}}, nil); err == nil {
		t.Error("ragged input must error")
	}
	if _, err := Ward([][]float64{{1}}, []string{"a", "b"}); err == nil {
		t.Error("label count mismatch must error")
	}
}

func TestSingleObservation(t *testing.T) {
	link, err := Ward([][]float64{{1, 2, 3}}, []string{"only"})
	if err != nil {
		t.Fatal(err)
	}
	if link.NumClusters(1.4) != 1 {
		t.Error("single observation must form one cluster")
	}
	if !strings.Contains(link.Dendrogram(), "only") {
		t.Error("dendrogram must render a lone leaf")
	}
}

// Property: every cut yields a partition — each leaf appears in exactly
// one cluster, and cluster count decreases (weakly) as threshold grows.
func TestQuickCutIsPartition(t *testing.T) {
	f := func(seed uint8) bool {
		n := int(seed%10) + 2
		vecs := make([][]float64, n)
		s := uint64(seed) + 1
		for i := range vecs {
			vecs[i] = make([]float64, 3)
			for k := range vecs[i] {
				s = s*6364136223846793005 + 1442695040888963407
				vecs[i][k] = float64(s%1000) / 100
			}
		}
		link, err := Ward(vecs, nil)
		if err != nil {
			return false
		}
		prev := math.MaxInt32
		for _, th := range []float64{0.01, 0.5, 1.4, 5, 50} {
			ids := link.CutByDistance(th)
			if len(ids) != n {
				return false
			}
			k := link.NumClusters(th)
			for _, id := range ids {
				if id < 0 || id >= k {
					return false
				}
			}
			if k > prev {
				return false
			}
			prev = k
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDendrogramSVG(t *testing.T) {
	vecs, labels := fourBlobs()
	link, _ := Ward(vecs, labels)
	svg := link.SVG(5.0)
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
		t.Fatal("not an SVG document")
	}
	for _, l := range labels {
		if !strings.Contains(svg, l) {
			t.Errorf("dendrogram SVG missing leaf %s", l)
		}
	}
	if !strings.Contains(svg, "cut") {
		t.Error("missing threshold cut line")
	}
	// Single-leaf linkage renders without panicking.
	lone, _ := Ward([][]float64{{1, 2}}, []string{"only"})
	if out := lone.SVG(1.0); !strings.Contains(out, "only") {
		t.Error("single-leaf dendrogram broken")
	}
}

// refNode is one active cluster of the reference Ward below.
type refNode struct {
	id       int
	size     int
	centroid []float64
}

// refWard is the plain full pair scan: a compacting list of active
// clusters, and before each merge a scan of every remaining pair for the
// smallest Ward distance, first pair on ties.
func refWard(vectors [][]float64) []Merge {
	n, dim := len(vectors), len(vectors[0])
	active := make([]refNode, n)
	for i := range active {
		active[i] = refNode{id: i, size: 1, centroid: append([]float64(nil), vectors[i]...)}
	}
	var merges []Merge
	for next := n; len(active) > 1; next++ {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < len(active)-1; i++ {
			for j := i + 1; j < len(active); j++ {
				d := wardDist(active[i].size, active[j].size, active[i].centroid, active[j].centroid)
				if d < best {
					best, bi, bj = d, i, j
				}
			}
		}
		a, b := active[bi], active[bj]
		merged := refNode{id: next, size: a.size + b.size, centroid: make([]float64, dim)}
		for k := 0; k < dim; k++ {
			merged.centroid[k] = (float64(a.size)*a.centroid[k] +
				float64(b.size)*b.centroid[k]) / float64(merged.size)
		}
		merges = append(merges, Merge{A: a.id, B: b.id, Distance: math.Sqrt(best), Size: merged.size})
		active = append(active[:bj], active[bj+1:]...)
		active[bi] = merged
	}
	return merges
}

// TestWardMatchesFullPairScan holds the cached-nearest-neighbour Ward to
// the full pair scan, merge for merge and bit for bit, on random inputs
// of 1 to 288 observations in 1 to 5 dimensions. Half the inputs sit on
// a coarse integer grid, where duplicate points and equal distances make
// the tie-break decide merges. The rest of the test draws near-regular
// tetrahedra: their six distances agree to a few ulps, so rounding
// decides which pair is closest, and only the merged cluster's freshly
// computed distance to an earlier row can reorder that row's candidates.
func TestWardMatchesFullPairScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 17, 31, 32, 33, 63, 76, 95, 96, 97, 150, 191, 192, 288}
	for c, n := range sizes {
		for g, grid := range []bool{false, true} {
			dim := 1 + (2*c+g)%5
			vecs := make([][]float64, n)
			for i := range vecs {
				vecs[i] = make([]float64, dim)
				for k := range vecs[i] {
					if grid {
						vecs[i][k] = float64(rng.Intn(4))
					} else {
						vecs[i][k] = rng.NormFloat64()
					}
				}
			}
			checkWard(t, fmt.Sprintf("n=%d dim=%d grid=%v", n, dim, grid), vecs)
		}
	}

	tet := [4][3]float64{{1, 1, 1}, {1, -1, -1}, {-1, 1, -1}, {-1, -1, 1}}
	for c := 0; c < 10000; c++ {
		vecs := make([][]float64, 4)
		for i := range vecs {
			vecs[i] = make([]float64, 3)
			for k := range vecs[i] {
				ulps := float64(rng.Intn(9)-4) * float64(rng.Intn(3))
				vecs[i][k] = tet[i][k] * (1 + ulps*0x1p-53)
			}
		}
		checkWard(t, fmt.Sprintf("tetrahedron %d %v", c, vecs), vecs)
	}
}

func checkWard(t *testing.T, ctx string, vecs [][]float64) {
	t.Helper()
	link, err := Ward(vecs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := refWard(vecs)
	if len(link.Merges) != len(want) {
		t.Fatalf("%s: %d merges, reference %d", ctx, len(link.Merges), len(want))
	}
	for i, w := range want {
		g := link.Merges[i]
		if g.A != w.A || g.B != w.B || g.Size != w.Size ||
			math.Float64bits(g.Distance) != math.Float64bits(w.Distance) {
			t.Fatalf("%s: merge %d = %+v, reference %+v", ctx, i, g, w)
		}
	}
}

// TestWardRejectsNonFinite checks that a NaN or infinite coordinate is
// an error naming the observation, not a failed pair search.
func TestWardRejectsNonFinite(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, tc := range []struct {
			vecs [][]float64
			bad  int
		}{
			{[][]float64{{x}, {1}}, 0},
			{[][]float64{{0, 1}, {2, 3}, {4, x}}, 2},
		} {
			link, err := Ward(tc.vecs, nil)
			if err == nil {
				t.Fatalf("Ward(%v) = %+v, want an error", tc.vecs, link)
			}
			if want := fmt.Sprintf("observation %d ", tc.bad); !strings.Contains(err.Error(), want) {
				t.Errorf("Ward(%v) error %q does not name %q", tc.vecs, err, want)
			}
		}
	}
}

// BenchmarkWard clusters random five-dimensional tuples: 76 is one Fig 6
// view's kernel count, 288 a view three times the size of the old
// parallel pair-search threshold.
func BenchmarkWard(b *testing.B) {
	for _, n := range []int{76, 288} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			vecs := make([][]float64, n)
			for i := range vecs {
				vecs[i] = make([]float64, 5)
				for k := range vecs[i] {
					vecs[i][k] = rng.Float64()
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Ward(vecs, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
