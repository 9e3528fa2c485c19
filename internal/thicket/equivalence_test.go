package thicket

// Property-style equivalence tests: the columnar Thicket must answer
// every query exactly like a naive model built from maps over the same
// profiles. The corpus is pseudo-random but deterministic — sparse
// metrics, duplicate (node, profile) rows, profiles missing the groupby
// key — so the postings walks, the view selections, and the MissingKey
// group all get exercised. Run under -race this also checks the parallel
// stats fan-out path.

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rajaperf/internal/caliper"
	"rajaperf/internal/frame"
)

// oracleRow mirrors one DataFrame row in the naive model.
type oracleRow struct {
	node    string
	prof    int
	metrics map[string]float64
}

type oracle struct {
	rows []oracleRow
	meta []map[string]any
}

func (o *oracle) metric(node string, prof int, metric string) (float64, bool) {
	for _, r := range o.rows {
		if r.node == node && r.prof == prof {
			v, ok := r.metrics[metric]
			return v, ok
		}
	}
	return 0, false
}

func (o *oracle) nodeVector(node string, metrics []string) ([]float64, bool) {
	for _, r := range o.rows {
		if r.node != node {
			continue
		}
		out := make([]float64, len(metrics))
		all := true
		for i, m := range metrics {
			v, ok := r.metrics[m]
			if !ok {
				all = false
				break
			}
			out[i] = v
		}
		if all {
			return out, true
		}
	}
	return nil, false
}

func (o *oracle) groupKeys(key string) map[string]int {
	out := map[string]int{}
	for _, r := range o.rows {
		k := frame.MissingKey
		if v, ok := o.meta[r.prof][key]; ok {
			k = v.(string)
		}
		out[k]++
	}
	return out
}

func (o *oracle) stats(metric string) map[string][]float64 {
	byNode := map[string][]float64{}
	for _, r := range o.rows {
		if v, ok := r.metrics[metric]; ok {
			byNode[r.node] = append(byNode[r.node], v)
		}
	}
	return byNode
}

// equivCorpus builds a deterministic random corpus plus its oracle.
func equivCorpus(seed int64, profiles int) ([]*caliper.Profile, *oracle) {
	rng := rand.New(rand.NewSource(seed))
	kernels := []string{"DAXPY", "MUL", "TRIAD", "ADD", "DOT", "COPY", "IF_QUAD", "SORT",
		"REDUCE3", "NESTED_INIT", "FIR", "LTIMES", "HALO", "DIFFUSION3DPA"}
	metricsAll := []string{"time", "flops", "bytes", "imbalance_pct", "lane_busy_max_sec", "checksum"}
	machines := []string{"SPR-DDR", "SPR-HBM", "P9-V100"}

	o := &oracle{}
	var ps []*caliper.Profile
	for p := 0; p < profiles; p++ {
		c := caliper.NewRecorderWith(caliper.Config{})
		md := map[string]any{}
		if rng.Intn(5) != 0 { // ~1 in 5 profiles lacks the groupby key
			m := machines[rng.Intn(len(machines))]
			c.AddMetadata("machine", m)
			md["machine"] = m
		}
		c.AddMetadata("rep", p)
		md["rep"] = p
		for k := 0; k < len(kernels); k++ {
			if rng.Intn(4) == 0 { // sparse: some kernels absent per profile
				continue
			}
			name := kernels[k]
			path := []string{"suite", name}
			row := oracleRow{node: name, prof: p, metrics: map[string]float64{}}
			for _, m := range metricsAll {
				if rng.Intn(3) == 0 { // sparse metrics
					continue
				}
				v := math.Round(rng.Float64()*1e6) / 1e3
				c.SetMetricAt(path, m, v)
				row.metrics[m] = v
			}
			// A record only exists in caliper once a metric touches it.
			if len(row.metrics) > 0 {
				o.rows = append(o.rows, row)
			}
		}
		o.meta = append(o.meta, md)
		ps = append(ps, c.Profile())
	}
	// Oracle rows must follow ingest order: per profile, caliper record
	// order. caliper preserves first-touch path order, which is the order
	// rows were appended above.
	return ps, o
}

func TestThicketMatchesOracle(t *testing.T) {
	ps, o := equivCorpus(7, 30)
	tk := FromProfiles(ps)

	if tk.NumProfiles() != 30 {
		t.Fatalf("NumProfiles = %d", tk.NumProfiles())
	}
	if tk.NumRows() != len(o.rows) {
		t.Fatalf("NumRows = %d, oracle %d", tk.NumRows(), len(o.rows))
	}

	metrics := []string{"time", "flops", "bytes", "imbalance_pct"}
	for _, r := range o.rows {
		for _, m := range metrics {
			want, wok := o.metric(r.node, r.prof, m)
			got, gok := tk.Metric(r.node, ProfileID(r.prof), m)
			if wok != gok || (wok && got != want) {
				t.Fatalf("Metric(%s, %d, %s) = %v, %v, oracle %v, %v",
					r.node, r.prof, m, got, gok, want, wok)
			}
		}
	}
	for _, node := range []string{"DAXPY", "SORT", "HALO", "absent"} {
		want, wok := o.nodeVector(node, metrics[:3])
		got, gok := tk.NodeVector(node, metrics[:3])
		if wok != gok {
			t.Fatalf("NodeVector(%s) ok = %v, oracle %v", node, gok, wok)
		}
		if wok && !floatsEqual(got, want) {
			t.Fatalf("NodeVector(%s) = %v, oracle %v", node, got, want)
		}
	}
}

func TestGroupByMatchesOracleIncludingMissingKey(t *testing.T) {
	ps, o := equivCorpus(11, 40)
	tk := FromProfiles(ps)

	want := o.groupKeys("machine")
	groups := tk.GroupBy("machine")
	if len(groups) != len(want) {
		t.Fatalf("groups = %d (%v), oracle %d", len(groups), keysOf(groups), len(want))
	}
	for k, n := range want {
		g, ok := groups[k]
		if !ok {
			t.Fatalf("missing group %q", k)
		}
		if g.NumRows() != n {
			t.Fatalf("group %q rows = %d, oracle %d", k, g.NumRows(), n)
		}
	}
	if _, ok := groups[frame.MissingKey]; !ok {
		t.Fatalf("no %q group despite profiles lacking the key; groups = %v",
			frame.MissingKey, keysOf(groups))
	}
	if _, ok := groups["<nil>"]; ok {
		t.Fatal("missing metadata key leaked as \"<nil>\" group")
	}
}

func TestAggregateStatsMatchesOracle(t *testing.T) {
	ps, o := equivCorpus(13, 35)
	tk := FromProfiles(ps)

	for _, metric := range []string{"time", "checksum"} {
		want := o.stats(metric)
		for _, s := range tk.AggregateStats(metric) {
			xs := want[s.Node]
			if s.Count != len(xs) {
				t.Fatalf("%s/%s count = %d, oracle %d", s.Node, metric, s.Count, len(xs))
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			var median float64
			if n := len(sorted); n%2 == 1 {
				median = sorted[n/2]
			} else {
				median = 0.5 * (sorted[n/2-1] + sorted[n/2])
			}
			if math.Abs(s.Median-median) > 1e-9 {
				t.Fatalf("%s/%s median = %v, oracle %v", s.Node, metric, s.Median, median)
			}
			if s.Min != sorted[0] || s.Max != sorted[len(sorted)-1] {
				t.Fatalf("%s/%s min/max = %v/%v, oracle %v/%v",
					s.Node, metric, s.Min, s.Max, sorted[0], sorted[len(sorted)-1])
			}
			sum := 0.0
			for _, x := range xs {
				sum += x
			}
			if math.Abs(s.Mean-sum/float64(len(xs))) > 1e-9 {
				t.Fatalf("%s/%s mean = %v", s.Node, metric, s.Mean)
			}
		}
	}
}

func TestFilteredViewMatchesOracle(t *testing.T) {
	ps, o := equivCorpus(17, 30)
	tk := FromProfiles(ps)

	pred := func(md map[string]any) bool { return md["machine"] == "SPR-HBM" }
	fv := tk.Where(frame.MetaEq("machine", "SPR-HBM"))

	var kept []oracleRow
	for _, r := range o.rows {
		if pred(o.meta[r.prof]) {
			kept = append(kept, r)
		}
	}
	if fv.NumRows() != len(kept) {
		t.Fatalf("filtered rows = %d, oracle %d", fv.NumRows(), len(kept))
	}
	// Metric on the view must see only kept profiles.
	for _, r := range o.rows {
		want, wok := 0.0, false
		if pred(o.meta[r.prof]) {
			want, wok = o.metric(r.node, r.prof, "time")
		}
		got, gok := fv.Metric(r.node, ProfileID(r.prof), "time")
		if wok != gok || (wok && got != want) {
			t.Fatalf("view Metric(%s, %d) = %v, %v, oracle %v, %v",
				r.node, r.prof, got, gok, want, wok)
		}
	}
	// FilterNodes parity.
	nv := tk.Where(frame.Not(frame.NodeEq("DAXPY")))
	n := 0
	for _, r := range o.rows {
		if r.node != "DAXPY" {
			n++
		}
	}
	if nv.NumRows() != n {
		t.Fatalf("FilterNodes rows = %d, oracle %d", nv.NumRows(), n)
	}
}

func TestConcatMatchesOracle(t *testing.T) {
	ps1, o1 := equivCorpus(19, 12)
	ps2, o2 := equivCorpus(23, 9)
	tk := FromProfiles(slices.Concat(ps1, ps2))

	if tk.NumProfiles() != 21 {
		t.Fatalf("NumProfiles = %d", tk.NumProfiles())
	}
	if tk.NumRows() != len(o1.rows)+len(o2.rows) {
		t.Fatalf("NumRows = %d", tk.NumRows())
	}
	for _, r := range o1.rows {
		want, wok := o1.metric(r.node, r.prof, "time")
		got, gok := tk.Metric(r.node, ProfileID(r.prof), "time")
		if wok != gok || (wok && got != want) {
			t.Fatalf("concat Metric(%s, %d) = %v, %v, oracle %v, %v",
				r.node, r.prof, got, gok, want, wok)
		}
	}
	for _, r := range o2.rows {
		want, wok := o2.metric(r.node, r.prof, "time")
		got, gok := tk.Metric(r.node, ProfileID(r.prof+12), "time")
		if wok != gok || (wok && got != want) {
			t.Fatalf("concat Metric(%s, %d+12) = %v, %v, oracle %v, %v",
				r.node, r.prof, got, gok, want, wok)
		}
	}
	// Second part's metadata survives renumbering.
	if got := tk.MetadataColumn("rep")[12]; got != "0" {
		t.Fatalf("renumbered metadata rep = %q, want 0", got)
	}
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func keysOf(m map[string]*Thicket) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
