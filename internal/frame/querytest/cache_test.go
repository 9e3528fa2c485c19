package querytest

// Property tests for the engine's query-result cache: an identical
// query hits, an incremental append makes stale entries unreachable, and
// eviction under an artificially small LRU budget never changes any
// answer — the cache is an optimization, never a semantic.

import (
	"math/rand"
	"testing"

	"rajaperf/internal/frame"
)

func statsQuery(e *frame.Engine, f *frame.Frame, key, metric string) frame.GroupStats {
	return e.Query(f, nil).GroupBy(key).Stats(metric)
}

// TestCacheHitAfterIdenticalQuery: re-issuing a query must be served
// from the cache, and re-composing an identical frame must re-hit the
// first frame's entries (content hashing, not pointer identity).
func TestCacheHitAfterIdenticalQuery(t *testing.T) {
	f := Corpus(3, 12)
	e := frame.NewEngine(64)

	first := statsQuery(e, f, "machine", "time")
	s0 := e.CacheStats()
	if s0.Hits != 0 || s0.Entries == 0 {
		t.Fatalf("after first query: %+v", s0)
	}
	second := statsQuery(e, f, "machine", "time")
	s1 := e.CacheStats()
	if s1.Hits == 0 {
		t.Fatalf("identical query did not hit: %+v", s1)
	}
	diffGroupStats(t, "cached pass", second, first)

	// An equally composed frame shares the content hash and the entries.
	f2 := Corpus(3, 12)
	if f2.Hash() != f.Hash() {
		t.Fatalf("equal composition, different hashes: %x vs %x", f2.Hash(), f.Hash())
	}
	third := statsQuery(e, f2, "machine", "time")
	s2 := e.CacheStats()
	if s2.Hits != s1.Hits+1 {
		t.Fatalf("recomposed frame did not re-hit: %+v -> %+v", s1, s2)
	}
	diffGroupStats(t, "recomposed pass", third, first)
}

// TestCacheInvalidationAfterAppend: appending to a live composition
// changes the snapshot's content hash, so post-append queries never see
// pre-append results, while the old snapshot keeps hitting its own
// entries.
func TestCacheInvalidationAfterAppend(t *testing.T) {
	inc := CorpusIncremental(5, 8)
	e := frame.NewEngine(64)

	snap1 := inc.Snapshot()
	before := statsQuery(e, snap1, "machine", "time")

	r := rand.New(rand.NewSource(77))
	buildCorpus(r, 4, inc)
	snap2 := inc.Snapshot()
	if snap2.Hash() == snap1.Hash() {
		t.Fatal("append did not change the content hash")
	}

	after := statsQuery(e, snap2, "machine", "time")
	want := RefStats(snap2, nil, nil, "machine", true, "time")
	diffGroupStats(t, "post-append", after, want)
	if s := e.CacheStats(); s.Hits != 0 {
		t.Fatalf("post-append query was served from a stale entry: %+v", s)
	}

	// The old snapshot still answers — from its own entries.
	again := statsQuery(e, snap1, "machine", "time")
	diffGroupStats(t, "old snapshot", again, before)
	if s := e.CacheStats(); s.Hits != 1 {
		t.Fatalf("old snapshot should have hit once: %+v", s)
	}
}

// TestCacheEvictionNeverChangesAnswers: a 2-entry LRU cycled through
// many distinct queries must evict constantly and still agree with both
// an unlimited engine and the naive reference on every answer.
func TestCacheEvictionNeverChangesAnswers(t *testing.T) {
	f := Corpus(9, 20)
	tiny := frame.NewEngine(2)
	big := frame.NewEngine(1024)

	keys := []string{"machine", "variant", "executor.schedule", "sometimes.key"}
	metrics := []string{"time", "flops", "bytes", "imbalance_pct", "never_metric"}
	for round := 0; round < 3; round++ {
		for _, key := range keys {
			for _, metric := range metrics {
				got := statsQuery(tiny, f, key, metric)
				diffGroupStats(t, "tiny vs big "+key+"/"+metric, got, statsQuery(big, f, key, metric))
				diffGroupStats(t, "tiny vs reference "+key+"/"+metric, got,
					RefStats(f, nil, nil, key, true, metric))
			}
		}
	}
	s := tiny.CacheStats()
	if s.Evictions == 0 {
		t.Fatalf("2-entry LRU over %d distinct queries never evicted: %+v", len(keys)*len(metrics), s)
	}
	if s.Entries > 2 {
		t.Fatalf("LRU exceeded its budget: %+v", s)
	}
}
