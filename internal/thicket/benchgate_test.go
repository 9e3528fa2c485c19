package thicket

// Benchmarks behind the CI query-engine regression gate (cmd/benchgate):
//
//   BenchmarkGroupStatsSweep        engine path, cache cleared per iteration
//   BenchmarkGroupStatsSweepLegacy  the pre-engine row-at-a-time path, preserved
//                                   here as an in-run reference workload
//   BenchmarkQueryCached            the same sweep served warm from the cache
//
// The gate compares the engine/legacy *ratio* against a checked-in
// baseline instead of absolute nanoseconds, so it holds on whatever
// hardware CI lands on: both sides run in the same process on the same
// corpus, and only a genuine engine regression moves their ratio.

import (
	"math"
	"sort"
	"testing"

	"rajaperf/internal/frame"
)

func benchSweep(tk *Thicket) int {
	groups := 0
	for _, key := range benchSweepKeys {
		for _, metric := range benchSweepMetrics {
			groups += len(tk.GroupStats(key, metric))
		}
	}
	return groups
}

func BenchmarkGroupStatsSweep(b *testing.B) {
	tk := FromProfiles(benchCorpus())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame.DefaultEngine().ClearCache()
		if benchSweep(tk) == 0 {
			b.Fatal("no groups")
		}
	}
}

func BenchmarkQueryCached(b *testing.B) {
	tk := FromProfiles(benchCorpus())
	frame.DefaultEngine().ClearCache()
	if benchSweep(tk) == 0 { // warm every sweep entry
		b.Fatal("no groups")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchSweep(tk) == 0 {
			b.Fatal("no groups")
		}
	}
}

func BenchmarkGroupStatsSweepLegacy(b *testing.B) {
	tk := FromProfiles(benchCorpus())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups := 0
		for _, key := range benchSweepKeys {
			for _, metric := range benchSweepMetrics {
				groups += len(legacyGroupStats(tk, key, metric))
			}
		}
		if groups == 0 {
			b.Fatal("no groups")
		}
	}
}

// legacyGroupStats reproduces the pre-engine groupby-then-aggregate
// path: materialize a selection per group, then gather per node with
// append growth and summarize serially — the reference workload the
// ratio gate normalizes hardware speed against. Kept verbatim from the
// previous implementation (minus the parallel fan-out, which the gate
// excludes so the ratio does not depend on CI core counts).
func legacyGroupStats(t *Thicket, key, metric string) map[string][]Stats {
	out := map[string][]Stats{}
	for k, sub := range legacyGroupBy(t, key) {
		out[k] = legacyAggregateStats(sub, metric)
	}
	return out
}

func legacyGroupBy(t *Thicket, key string) map[string]*Thicket {
	sels := map[string]*[]int32{}
	group := func(p int32) *[]int32 {
		k := t.f.MetaString(p, key)
		s, ok := sels[k]
		if !ok {
			s = new([]int32)
			sels[k] = s
		}
		return s
	}
	if t.sel == nil {
		for p := int32(0); p < int32(t.f.NumProfiles()); p++ {
			lo, hi := t.f.ProfileRange(p)
			if lo == hi {
				continue
			}
			s := group(p)
			for r := lo; r < hi; r++ {
				*s = append(*s, r)
			}
		}
	} else {
		profIDs := t.f.ProfIDs()
		cur, curProf := (*[]int32)(nil), int32(-1)
		for _, r := range t.sel {
			if p := profIDs[r]; p != curProf {
				curProf, cur = p, group(p)
			}
			*cur = append(*cur, r)
		}
	}
	out := make(map[string]*Thicket, len(sels))
	for k, sel := range sels {
		out[k] = &Thicket{f: t.f, sel: *sel}
	}
	return out
}

func legacyAggregateStats(t *Thicket, metric string) []Stats {
	col := t.f.Column(metric)
	if col == nil {
		return nil
	}
	dict := t.f.NodeDict()
	byNode := make([][]float64, dict.Len())
	nodeIDs := t.f.NodeIDs()
	t.eachRow(func(r int32) {
		id := nodeIDs[r]
		if id < 0 {
			return
		}
		if v, ok := col.Value(r); ok {
			byNode[id] = append(byNode[id], v)
		}
	})
	ids := make([]int32, 0, dict.Len())
	for id := range byNode {
		if len(byNode[id]) > 0 {
			ids = append(ids, int32(id))
		}
	}
	sort.Slice(ids, func(i, j int) bool { return dict.Name(ids[i]) < dict.Name(ids[j]) })
	out := make([]Stats, len(ids))
	for i := range ids {
		out[i] = legacySummarize(dict.Name(ids[i]), metric, byNode[ids[i]])
	}
	return out
}

func legacySummarize(node, metric string, xs []float64) Stats {
	s := Stats{Node: node, Metric: metric, Count: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sum := 0.0
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	varsum := 0.0
	for _, x := range xs {
		d := x - s.Mean
		varsum += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(varsum / float64(len(xs)-1))
	}
	s.Median = frame.MedianInPlace(xs)
	return s
}

// TestLegacySweepAgreesWithEngine pins the reference workload to the
// engine's answers on the bench corpus, so the gate's two sides can
// never drift apart semantically.
func TestLegacySweepAgreesWithEngine(t *testing.T) {
	tk := FromProfiles(benchCorpus()[:40])
	for _, key := range benchSweepKeys {
		for _, metric := range benchSweepMetrics {
			want := legacyGroupStats(tk, key, metric)
			got := tk.GroupStats(key, metric)
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d groups vs legacy %d", key, metric, len(got), len(want))
			}
			for k, wrows := range want {
				grows := got[k]
				if len(grows) != len(wrows) {
					t.Fatalf("%s/%s group %q: %d rows vs legacy %d", key, metric, k, len(grows), len(wrows))
				}
				for i := range wrows {
					if grows[i] != wrows[i] {
						t.Fatalf("%s/%s group %q row %d:\n engine %+v\n legacy %+v",
							key, metric, k, i, grows[i], wrows[i])
					}
				}
			}
		}
	}
}
