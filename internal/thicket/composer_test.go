package thicket

import (
	"math"
	"runtime"
	"testing"

	"rajaperf/internal/frame"
)

// composeAnswers computes a view's machine-grouped and ungrouped time
// statistics from its own frame. The engine cache is cleared before each
// query, so two views with equal content hashes are not compared through
// one cached result read twice.
func composeAnswers(tk *Thicket) (frame.GroupStats, []Stats) {
	eng.ClearCache()
	gs := tk.GroupStats("machine", "time")
	eng.ClearCache()
	return gs, tk.AggregateStats("time")
}

// sameStatsBits reports whether two statistics rows are equal bit for bit.
func sameStatsBits(a, b []Stats) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Node != y.Node || x.Metric != y.Metric || x.Count != y.Count {
			return false
		}
		for _, p := range [][2]float64{{x.Mean, y.Mean}, {x.Median, y.Median}, {x.Std, y.Std}, {x.Min, y.Min}, {x.Max, y.Max}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				return false
			}
		}
	}
	return true
}

// diffAnswers fails the test when two views' answers differ.
func diffAnswers(t *testing.T, what string, gs, wantGS frame.GroupStats, agg, wantAgg []Stats) {
	t.Helper()
	if len(gs) != len(wantGS) {
		t.Fatalf("%s: %d machine groups, want %d", what, len(gs), len(wantGS))
	}
	for k, want := range wantGS {
		if !sameStatsBits(gs[k], want) {
			t.Fatalf("%s: GroupStats[%q] differs", what, k)
		}
	}
	if !sameStatsBits(agg, wantAgg) {
		t.Fatalf("%s: AggregateStats differs", what)
	}
}

// TestComposerMatchesFromProfiles pins the query-cache key contract: a
// profile sequence composes to one content hash whichever path composed
// it and however many cores run the process. At GOMAXPROCS 2, over 100
// profiles of the bench corpus, a live Composer's snapshot after each Add
// must equal FromProfiles of that prefix (hash, and GroupStats and
// AggregateStats bit for bit), and later Adds must not change an earlier
// snapshot's answers.
func TestComposerMatchesFromProfiles(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ps := benchCorpus()[:100]

	type answers struct {
		gs  frame.GroupStats
		agg []Stats
	}
	c := NewComposer()
	snaps := make([]*Thicket, len(ps))
	early := make([]answers, len(ps))
	for i, p := range ps {
		c.Add(p)
		snaps[i] = c.Snapshot()
		batch := FromProfiles(ps[:i+1])
		if got, want := snaps[i].f.Hash(), batch.f.Hash(); got != want {
			t.Fatalf("%d profiles: Composer hash %x, FromProfiles hash %x", i+1, got, want)
		}
		gs, agg := composeAnswers(snaps[i])
		wantGS, wantAgg := composeAnswers(batch)
		diffAnswers(t, "snapshot vs FromProfiles", gs, wantGS, agg, wantAgg)
		early[i] = answers{gs, agg}
	}
	for i, snap := range snaps {
		gs, agg := composeAnswers(snap)
		diffAnswers(t, "snapshot after later Adds", gs, early[i].gs, agg, early[i].agg)
	}
}
