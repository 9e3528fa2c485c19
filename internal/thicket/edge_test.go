package thicket

// Edge-case pins for the satellite fixes: empty selections must stay
// empty (a nil selection means "full view", so an all-rejecting filter
// must never return one), and the quickselect median must be exact on
// tiny and duplicate-heavy samples.

import (
	"math/rand"
	"sort"
	"testing"

	"rajaperf/internal/caliper"
	"rajaperf/internal/frame"
)

func edgeThicket() *Thicket {
	mk := func(machine string, times map[string]float64) *caliper.Profile {
		c := caliper.NewRecorderWith(caliper.Config{})
		c.AddMetadata("machine", machine)
		for node, v := range times {
			c.SetMetricAt([]string{"suite", node}, "time", v)
		}
		return c.Profile()
	}
	return FromProfiles([]*caliper.Profile{
		mk("m0", map[string]float64{"A": 1, "B": 2}),
		mk("m1", map[string]float64{"B": 3, "C": 4}),
	})
}

func TestFilterRejectAllIsEmpty(t *testing.T) {
	tk := edgeThicket()
	none := tk.Where(frame.MetaEq("machine", "no_such_machine"))
	if got := none.NumRows(); got != 0 {
		t.Fatalf("reject-all Filter has %d rows, want 0", got)
	}
	if got := none.Nodes(); len(got) != 0 {
		t.Fatalf("reject-all Filter has nodes %v", got)
	}
	if got := none.AggregateStats("time"); len(got) != 0 {
		t.Fatalf("reject-all AggregateStats = %v", got)
	}
	if got := none.GroupStats("machine", "time"); len(got) != 0 {
		t.Fatalf("reject-all GroupStats = %v", got)
	}
	if _, ok := none.Metric("A", 0, "time"); ok {
		t.Fatal("reject-all Metric hit")
	}
	// Chaining off an empty view stays empty.
	if got := none.Where(frame.Not(frame.NodeEq("no_such_node"))).NumRows(); got != 0 {
		t.Fatalf("FilterNodes over empty view has %d rows", got)
	}
}

func TestFilterNodesRejectAllIsEmpty(t *testing.T) {
	tk := edgeThicket()
	none := tk.Where(frame.NodeEq("no_such_node"))
	if got := none.NumRows(); got != 0 {
		t.Fatalf("reject-all FilterNodes has %d rows, want 0", got)
	}
	if got := len(none.GroupBy("machine")); got != 0 {
		t.Fatalf("GroupBy over empty view has %d groups", got)
	}
}

func TestAggregateStatsAllInvalidMetric(t *testing.T) {
	tk := edgeThicket()
	if got := tk.AggregateStats("no_such_metric"); got != nil {
		t.Fatalf("AggregateStats(absent) = %v", got)
	}
	// A column valid only outside the view: filter to m1, ask for a
	// metric carried only by m0.
	c := caliper.NewRecorderWith(caliper.Config{})
	c.AddMetadata("machine", "m0")
	c.SetMetricAt([]string{"suite", "A"}, "rare", 7)
	c2 := caliper.NewRecorderWith(caliper.Config{})
	c2.AddMetadata("machine", "m1")
	c2.SetMetricAt([]string{"suite", "A"}, "time", 1)
	tk2 := FromProfiles([]*caliper.Profile{c.Profile(), c2.Profile()})
	m1 := tk2.Where(frame.MetaEq("machine", "m1"))
	if got := m1.AggregateStats("rare"); len(got) != 0 {
		t.Fatalf("AggregateStats over all-invalid view = %v", got)
	}
}

func TestMedianInPlaceEdgeCases(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{2, 1}, 1.5},
		{[]float64{3, 3, 3}, 3},
		{[]float64{4, 4, 1, 4}, 4},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{9, 1, 8, 2, 7}, 7},
		{[]float64{-1, -1, 0, 0}, -0.5},
	}
	for _, c := range cases {
		xs := append([]float64(nil), c.xs...)
		if got := frame.MedianInPlace(xs); got != c.want {
			t.Errorf("MedianInPlace(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMedianMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(10)) // heavy duplicates on purpose
		}
		ref := append([]float64(nil), xs...)
		sort.Float64s(ref)
		var want float64
		if n%2 == 1 {
			want = ref[n/2]
		} else {
			want = 0.5 * (ref[n/2-1] + ref[n/2])
		}
		if got := frame.MedianInPlace(xs); got != want {
			t.Fatalf("trial %d: median(%v) = %v, want %v", trial, xs, got, want)
		}
	}
}
