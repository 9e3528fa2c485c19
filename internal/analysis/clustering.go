package analysis

import (
	"fmt"
	"sort"
	"strings"

	"rajaperf/internal/cluster"
	"rajaperf/internal/frame"
	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
	"rajaperf/internal/thicket"
)

// DefaultWardThreshold is the dendrogram cut distance; the paper uses 1.4,
// which yields four clusters on its SPR-DDR data.
const DefaultWardThreshold = 1.4

// ClusterStat characterizes one flat cluster: mean TMA tuple and mean
// speedup on each high-bandwidth machine (the Fig 7 bottom table and the
// Fig 8 parallel-coordinate axes).
type ClusterStat struct {
	ID             int
	Kernels        []string
	FrontendBound  float64
	BadSpeculation float64
	Retiring       float64
	CoreBound      float64
	MemoryBound    float64
	SpeedupHBM     float64
	SpeedupV100    float64
	SpeedupMI250X  float64
}

// ClusterResult is the full Sec IV analysis output.
type ClusterResult struct {
	Linkage     *cluster.Linkage
	Threshold   float64
	Assignments map[string]int // kernel -> cluster id
	Stats       []ClusterStat
	Excluded    []string // kernels left out of the comparison (non-O(n))
	// GroupCounts[group][cluster] = kernel count (the Fig 7 top table).
	GroupCounts map[string]map[int]int
}

// Cluster runs the paper's Sec IV kernel-similarity analysis: Ward
// agglomerative clustering of SPR-DDR top-down tuples with Euclidean
// distance, cut at the given threshold (0 = DefaultWardThreshold),
// excluding kernels whose complexity makes the cross-machine decomposition
// incomparable (the paper excludes 12 of its 75).
func (s *Session) Cluster(threshold float64) (*ClusterResult, error) {
	if threshold <= 0 {
		threshold = DefaultWardThreshold
	}
	ddr := machine.SPRDDR()
	rows, err := s.Topdown(ddr)
	if err != nil {
		return nil, err
	}

	comparable := map[string]bool{}
	var excluded []string
	for _, name := range kernels.Names() {
		k, err := kernels.New(name)
		if err != nil {
			continue
		}
		if k.Info().Complexity == kernels.CxN && k.Info().Group != kernels.Comm {
			comparable[name] = true
		} else {
			excluded = append(excluded, name)
		}
	}

	var vectors [][]float64
	var labels []string
	for _, r := range rows {
		if !comparable[r.Kernel] {
			continue
		}
		vectors = append(vectors, r.Metrics.Vector())
		labels = append(labels, r.Kernel)
	}
	link, err := cluster.Ward(vectors, labels)
	if err != nil {
		return nil, err
	}
	ids := link.CutByDistance(threshold)

	res := &ClusterResult{
		Linkage:     link,
		Threshold:   threshold,
		Assignments: map[string]int{},
		Excluded:    excluded,
		GroupCounts: map[string]map[int]int{},
	}
	for i, label := range labels {
		res.Assignments[label] = ids[i]
	}

	// Speedup tables against the SPR-DDR baseline.
	baseTk, err := s.MachineThicket(ddr)
	if err != nil {
		return nil, err
	}
	speedups := map[string]map[string]float64{}
	for _, m := range []*machine.Machine{machine.SPRHBM(), machine.P9V100(), machine.EPYCMI250X()} {
		tk, err := s.MachineThicket(m)
		if err != nil {
			return nil, err
		}
		speedups[m.Shorthand] = thicket.SpeedupTable(baseTk, tk, "time")
	}

	// Per-cluster aggregation: mean TMA tuples, median speedups (robust
	// to single extreme outliers like EDGE3D).
	nClusters := link.NumClusters(threshold)
	stats := make([]ClusterStat, nClusters)
	counts := make([]int, nClusters)
	spLists := make([][3][]float64, nClusters)
	tmaByKernel := map[string][]float64{}
	for i, label := range labels {
		tmaByKernel[label] = vectors[i]
	}
	for label, id := range res.Assignments {
		st := &stats[id]
		st.ID = id
		st.Kernels = append(st.Kernels, label)
		v := tmaByKernel[label]
		st.FrontendBound += v[0]
		st.BadSpeculation += v[1]
		st.Retiring += v[2]
		st.CoreBound += v[3]
		st.MemoryBound += v[4]
		counts[id]++
		for mi, mach := range []string{"SPR-HBM", "P9-V100", "EPYC-MI250X"} {
			if sp, ok := speedups[mach][label]; ok {
				spLists[id][mi] = append(spLists[id][mi], sp)
			}
		}
	}
	for id := range stats {
		st := &stats[id]
		n := float64(counts[id])
		if n == 0 {
			continue
		}
		st.FrontendBound /= n
		st.BadSpeculation /= n
		st.Retiring /= n
		st.CoreBound /= n
		st.MemoryBound /= n
		st.SpeedupHBM = frame.MedianInPlace(spLists[id][0])
		st.SpeedupV100 = frame.MedianInPlace(spLists[id][1])
		st.SpeedupMI250X = frame.MedianInPlace(spLists[id][2])
		sort.Strings(st.Kernels)
	}
	res.Stats = stats

	// Group distribution (Fig 7 top table).
	for label, id := range res.Assignments {
		k, err := kernels.New(label)
		if err != nil {
			continue
		}
		g := k.Info().Group.String()
		if res.GroupCounts[g] == nil {
			res.GroupCounts[g] = map[int]int{}
		}
		res.GroupCounts[g][id]++
	}
	return res, nil
}

// MostMemoryBoundCluster returns the ID of the cluster with the highest
// mean memory-bound fraction — the paper's "cluster 2".
func (r *ClusterResult) MostMemoryBoundCluster() int {
	best, bestV := -1, -1.0
	for _, st := range r.Stats {
		if len(st.Kernels) > 0 && st.MemoryBound > bestV {
			best, bestV = st.ID, st.MemoryBound
		}
	}
	return best
}

// Render formats the Fig 6 dendrogram plus the Fig 7/8 cluster tables.
func (r *ClusterResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ward clustering of SPR-DDR top-down tuples (threshold %.2f)\n\n", r.Threshold)
	b.WriteString("Dendrogram (Fig 6):\n")
	b.WriteString(r.Linkage.Dendrogram())
	b.WriteString("\nPer-cluster characterization (Fig 7/8):\n")
	fmt.Fprintf(&b, "%-8s %5s %9s %8s %9s %8s %8s | %8s %8s %10s\n",
		"Cluster", "n", "frontend", "badspec", "retiring", "core", "memory",
		"xHBM", "xV100", "xMI250X")
	for _, st := range r.Stats {
		if len(st.Kernels) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-8d %5d %9.4f %8.4f %9.4f %8.4f %8.4f | %8.2f %8.2f %10.2f\n",
			st.ID, len(st.Kernels), st.FrontendBound, st.BadSpeculation,
			st.Retiring, st.CoreBound, st.MemoryBound,
			st.SpeedupHBM, st.SpeedupV100, st.SpeedupMI250X)
	}
	b.WriteString("\nGroup distribution across clusters (Fig 7 top):\n")
	for _, g := range sortedKeys(r.GroupCounts) {
		fmt.Fprintf(&b, "  %-12s", g)
		cs := r.GroupCounts[g]
		ids := make([]int, 0, len(cs))
		for id := range cs {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Fprintf(&b, " c%d:%d", id, cs[id])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "\nExcluded from comparison (%d non-O(n)/Comm kernels): %s\n",
		len(r.Excluded), strings.Join(r.Excluded, ", "))
	return b.String()
}
