package querytest

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"rajaperf/internal/frame"
)

// newTestEngine returns an engine with a small cache and a goroutine
// fan-out hook, so the differential runs also exercise the parallel
// summary path and the cache under contention.
func newTestEngine(cacheEntries int) *frame.Engine {
	e := frame.NewEngine(cacheEntries)
	e.SetParallel(func(n int, body func(lo, hi int)) {
		workers := 4
		if n < workers {
			workers = n
		}
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				body(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	})
	return e
}

// expandSel normalizes the engine's nil-means-all selection.
func expandSel(f *frame.Frame, sel []int32) []int32 {
	if sel != nil {
		return sel
	}
	out := make([]int32, f.NumRows())
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

func sameStats(a, b frame.Stats) bool {
	return a.Node == b.Node && a.Metric == b.Metric && a.Count == b.Count &&
		math.Float64bits(a.Mean) == math.Float64bits(b.Mean) &&
		math.Float64bits(a.Median) == math.Float64bits(b.Median) &&
		math.Float64bits(a.Std) == math.Float64bits(b.Std) &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max)
}

func diffGroupStats(t *testing.T, ctx string, got, want frame.GroupStats) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, reference has %d (got keys %v, want keys %v)",
			ctx, len(got), len(want), keys(got), keys(want))
	}
	for k, wrows := range want {
		grows, ok := got[k]
		if !ok {
			t.Fatalf("%s: missing group %q", ctx, k)
		}
		if (grows == nil) != (wrows == nil) {
			t.Fatalf("%s: group %q nil-ness: engine %v, reference %v", ctx, k, grows == nil, wrows == nil)
		}
		if len(grows) != len(wrows) {
			t.Fatalf("%s: group %q has %d rows, reference %d", ctx, k, len(grows), len(wrows))
		}
		for i := range wrows {
			if !sameStats(grows[i], wrows[i]) {
				t.Fatalf("%s: group %q row %d:\n engine    %+v\n reference %+v", ctx, k, i, grows[i], wrows[i])
			}
		}
	}
}

func keys(gs frame.GroupStats) []string {
	out := make([]string, 0, len(gs))
	for k := range gs {
		out = append(out, k)
	}
	return out
}

// checkOneQuery runs one randomized query through the engine twice (the
// second run served from the cache unless it was evicted meanwhile) and
// through the reference evaluator, requiring byte-identical results each
// time.
func checkOneQuery(t *testing.T, e *frame.Engine, f *frame.Frame, r *rand.Rand, v Vocabulary) {
	t.Helper()
	base := RandomBase(r, f)
	nSpecs := r.Intn(4)
	specs := make([]Spec, nSpecs)
	for i := range specs {
		specs[i] = RandomSpec(r, v, r.Intn(3))
	}
	grouped := r.Intn(2) == 0
	key := pick(r, v.MetaKeys)
	metric := pick(r, v.Metrics)
	ctx := fmt.Sprintf("base=%d specs=[%s] grouped=%v key=%q metric=%q",
		len(base), SpecsString(specs), grouped, key, metric)

	build := func() *frame.Query {
		q := e.Query(f, base).Where(Preds(specs)...)
		if grouped {
			q = q.GroupBy(key)
		}
		return q
	}

	mode := r.Intn(4)
	for pass := 0; pass < 2; pass++ {
		pctx := fmt.Sprintf("%s pass=%d", ctx, pass)
		switch mode {
		case 0:
			got := expandSel(f, build().Rows())
			want := RefRows(f, base, specs)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Rows engine=%v reference=%v", pctx, got, want)
			}
		case 1:
			got := build().Groups()
			var want map[string][]int32
			if grouped {
				want = RefGroups(f, base, specs, key)
			} else {
				// An ungrouped Groups puts everything under "".
				want = map[string][]int32{}
				if all := RefRows(f, base, specs); len(all) > 0 {
					want[""] = all
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s: Groups keys engine=%v reference=%v", pctx, got, want)
			}
			for k, w := range want {
				if !reflect.DeepEqual(got[k], w) {
					t.Fatalf("%s: Groups[%q] engine=%v reference=%v", pctx, k, got[k], w)
				}
			}
		case 2:
			got := build().Stats(metric)
			want := RefStats(f, base, specs, key, grouped, metric)
			diffGroupStats(t, pctx, got, want)
		default:
			got := build().LastPositivePerNode(metric)
			want := RefLastPositive(f, base, specs, metric)
			if len(got) != len(want) {
				t.Fatalf("%s: LastPositive len engine=%d reference=%d", pctx, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: LastPositive[%d] engine=%v reference=%v", pctx, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDifferentialRandomQueries is the main differential sweep: seeded
// synthetic campaigns, randomized conjunctions, engine vs naive
// reference, byte-identical — including the second, cache-served pass
// of every query.
func TestDifferentialRandomQueries(t *testing.T) {
	v := DefaultVocabulary()
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			f := Corpus(seed, 4+r.Intn(30))
			e := newTestEngine(64)
			for q := 0; q < 40; q++ {
				checkOneQuery(t, e, f, r, v)
			}
		})
	}
}

// TestDifferentialIncrementalSnapshots runs the differential check
// against frames produced by Builder snapshots mid-stream, and
// checks that a snapshot of the full sequence is row- and hash-identical
// to a one-shot Builder ingest of the same sequence.
func TestDifferentialIncrementalSnapshots(t *testing.T) {
	v := DefaultVocabulary()
	for seed := int64(20); seed <= 24; seed++ {
		r := rand.New(rand.NewSource(seed))
		profiles := 6 + r.Intn(20)
		inc := CorpusIncremental(seed, profiles)
		snap := inc.Snapshot()

		batch := Corpus(seed, profiles)
		if snap.NumRows() != batch.NumRows() || snap.NumProfiles() != batch.NumProfiles() {
			t.Fatalf("seed %d: snapshot %d rows/%d profiles, batch %d/%d",
				seed, snap.NumRows(), snap.NumProfiles(), batch.NumRows(), batch.NumProfiles())
		}
		if snap.Hash() != batch.Hash() {
			t.Fatalf("seed %d: snapshot hash %x != batch hash %x", seed, snap.Hash(), batch.Hash())
		}

		e := newTestEngine(64)
		for q := 0; q < 15; q++ {
			checkOneQuery(t, e, snap, r, v)
		}
	}
}

// FuzzDifferential is the go-fuzz entry point over the same oracle.
func FuzzDifferential(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(5))
	f.Add(int64(99), uint8(1), uint8(8))
	f.Add(int64(7), uint8(40), uint8(3))
	v := DefaultVocabulary()
	f.Fuzz(func(t *testing.T, seed int64, profiles, queries uint8) {
		r := rand.New(rand.NewSource(seed))
		fr := Corpus(seed, 1+int(profiles)%40)
		e := newTestEngine(16)
		n := 1 + int(queries)%10
		for q := 0; q < n; q++ {
			checkOneQuery(t, e, fr, r, v)
		}
	})
}

// TestConcurrentQueriesWithIncrementalAppends exercises the documented
// concurrency contract under the race detector: readers query earlier
// snapshots through a shared engine (shared cache) while the ingest
// goroutine keeps appending and snapshotting.
func TestConcurrentQueriesWithIncrementalAppends(t *testing.T) {
	v := DefaultVocabulary()
	inc := CorpusIncremental(42, 10)
	e := newTestEngine(32)

	var wg sync.WaitGroup
	snaps := make(chan *frame.Frame, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			for f := range snaps {
				checkOneQuery(t, e, f, r, v)
			}
		}(w)
	}

	ing := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		snap := inc.Snapshot()
		for i := 0; i < 3; i++ {
			snaps <- snap
		}
		buildCorpus(ing, 2, inc)
	}
	close(snaps)
	wg.Wait()
}
