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

// TestClosestPairParallelMatchesSerial checks the fanned-out pair search
// against the plain double loop on a front large enough to engage the
// pool, including exact-tie inputs where the lexicographic (i, j)
// tie-break decides the winner.
func TestClosestPairParallelMatchesSerial(t *testing.T) {
	const n = 3 * pairSearchThreshold
	rng := rand.New(rand.NewSource(42))
	active := make([]wardNode, n)
	for i := range active {
		// Coordinates on a coarse grid force duplicate points, so many
		// pairs share the exact minimum distance.
		c := []float64{float64(rng.Intn(7)), float64(rng.Intn(7)), float64(rng.Intn(7))}
		active[i] = wardNode{id: i, size: 1 + rng.Intn(3), centroid: c}
	}

	si, sj, sd := -1, -1, math.Inf(1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := wardDist(active[i].size, active[j].size, active[i].centroid, active[j].centroid)
			if d < sd {
				sd, si, sj = d, i, j
			}
		}
	}
	gi, gj, gd := closestPair(active)
	if gi != si || gj != sj || gd != sd {
		t.Fatalf("closestPair = (%d, %d, %v), serial scan (%d, %d, %v)", gi, gj, gd, si, sj, sd)
	}

	// The full clustering must also be invariant: Ward on a shuffled-size
	// corpus gives byte-identical merge sequences however the scan runs.
	vecs := make([][]float64, n)
	labels := make([]string, n)
	for i := range vecs {
		vecs[i] = active[i].centroid
		labels[i] = fmt.Sprintf("k%03d", i)
	}
	l1, err := Ward(vecs, labels)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := Ward(vecs, labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(l1.Merges) != len(l2.Merges) {
		t.Fatalf("merge counts differ: %d vs %d", len(l1.Merges), len(l2.Merges))
	}
	for i := range l1.Merges {
		if l1.Merges[i] != l2.Merges[i] {
			t.Fatalf("merge %d differs: %+v vs %+v", i, l1.Merges[i], l2.Merges[i])
		}
	}
}
