package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"rajaperf/internal/cluster"
	"rajaperf/internal/frame"
	"rajaperf/internal/thicket"
)

// Question kinds, also the names of their per-layer latency metrics.
const (
	kindGroupStats = "groupstats"
	kindSpeedup    = "speedup"
	kindWhere      = "where"
	kindWard       = "ward"
)

// question is one analysis question. ask answers it over a composed
// thicket and returns a digest of the answer, so answers compare bit for
// bit across cold and warm passes and across iterations.
type question struct {
	kind, name string
	ask        func(t *thicket.Thicket, tr *tracer, parent, iter int) (uint64, error)
}

// digest is an FNV-1a hash over a canonical encoding of an answer. Floats
// enter by their bits.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{fnv.New64a()} }

func (d *digest) str(s string) {
	d.int(len(s))
	d.h.Write([]byte(s))
}

func (d *digest) int(n int) { d.f64bits(uint64(n)) }

func (d *digest) f64(x float64) { d.f64bits(math.Float64bits(x)) }

func (d *digest) f64bits(u uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], u)
	d.h.Write(b[:])
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

func digestStats(d *digest, ss []thicket.Stats) {
	d.int(len(ss))
	for _, s := range ss {
		d.str(s.Node)
		d.str(s.Metric)
		d.int(s.Count)
		d.f64(s.Mean)
		d.f64(s.Median)
		d.f64(s.Std)
		d.f64(s.Min)
		d.f64(s.Max)
	}
}

// tmaTuple is the top-down tuple the paper clusters (Figs 6–7).
var tmaTuple = []string{"frontend_bound", "bad_speculation", "retiring", "core_bound", "memory_bound"}

// kernelNodes keeps kernel nodes only: the suite root's "time" is the
// run's wall clock, which would make answers differ between iterations.
var kernelNodes = frame.Not(frame.NodeEq("suite"))

// wardThreshold is the paper's dendrogram cut distance.
const wardThreshold = 1.4

// questionSet builds the fixed question set for a composed corpus, in an
// order permuted by rng:
//
//   - GroupStats over machine, variant, tuning and size against time,
//     GB/s and GFLOPS (12 questions);
//   - SpeedupTable of modeled time between two pairs of machines, or of
//     variants when the corpus has one machine;
//   - Where-filtered top-10 kernels by median time, for two variants;
//   - Ward clustering of the top-down tuples of four CPU machine and
//     variant views.
func questionSet(t *thicket.Thicket, rng *rand.Rand) ([]question, error) {
	var qs []question
	for _, key := range []string{"machine", "variant", "tuning", "size_per_node"} {
		for _, metric := range []string{"time", "GB/s", "GFLOPS"} {
			key, metric := key, metric
			qs = append(qs, question{kindGroupStats, "groupstats:" + key + ":" + metric,
				func(t *thicket.Thicket, _ *tracer, _, _ int) (uint64, error) {
					gs := t.Where(kernelNodes).GroupStats(key, metric)
					d := newDigest()
					for _, g := range sortedKeys(gs) {
						d.str(g)
						digestStats(d, gs[g])
					}
					return d.sum(), nil
				}})
		}
	}

	machines := distinct(t.MetadataColumn("machine"))
	variants := distinct(t.MetadataColumn("variant"))
	pairKey, pairVals := "machine", machines
	if len(machines) < 2 {
		pairKey, pairVals = "variant", variants
	}
	if len(pairVals) < 2 {
		return nil, fmt.Errorf("questions: corpus has fewer than two machines and variants")
	}
	for i := 0; i+1 < len(pairVals) && i < 4; i += 2 {
		a, b := pairVals[i], pairVals[i+1]
		qs = append(qs, question{kindSpeedup, "speedup:" + a + "/" + b,
			func(t *thicket.Thicket, _ *tracer, _, _ int) (uint64, error) {
				sp := thicket.SpeedupTable(t.Where(frame.MetaEq(pairKey, a), kernelNodes),
					t.Where(frame.MetaEq(pairKey, b), kernelNodes), "time")
				if len(sp) == 0 {
					return 0, fmt.Errorf("speedup %s/%s: no common kernels", a, b)
				}
				d := newDigest()
				for _, n := range sortedKeys(sp) {
					d.str(n)
					d.f64(sp[n])
				}
				return d.sum(), nil
			}})
	}

	for _, v := range variants[:min(2, len(variants))] {
		v := v
		qs = append(qs, question{kindWhere, "where-top10:" + v,
			func(t *thicket.Thicket, _ *tracer, _, _ int) (uint64, error) {
				st := append([]thicket.Stats(nil),
					t.Where(frame.MetaEq("variant", v), kernelNodes, frame.MetricCmp("time", frame.CmpGt, 0)).AggregateStats("time")...)
				sort.Slice(st, func(i, j int) bool {
					if st[i].Median != st[j].Median {
						return st[i].Median > st[j].Median
					}
					return st[i].Node < st[j].Node
				})
				d := newDigest()
				digestStats(d, st[:min(10, len(st))])
				return d.sum(), nil
			}})
	}

	views := wardViews(t, machines, variants)
	if len(views) == 0 {
		return nil, fmt.Errorf("questions: no CPU machine with top-down metrics in the corpus")
	}
	for _, mv := range views {
		m, v := mv[0], mv[1]
		qs = append(qs, question{kindWard, "ward:" + m + ":" + v,
			func(t *thicket.Thicket, tr *tracer, parent, iter int) (uint64, error) {
				view := t.Where(frame.MetaEq("machine", m), frame.MetaEq("variant", v))
				var vecs [][]float64
				var labels []string
				for _, n := range view.Nodes() {
					if vec, ok := view.NodeVector(n, tmaTuple); ok {
						vecs = append(vecs, vec)
						labels = append(labels, n)
					}
				}
				var link *cluster.Linkage
				var err error
				tr.region("cluster.Ward", "cluster", parent, iter, func() { link, err = cluster.Ward(vecs, labels) })
				if err != nil {
					return 0, fmt.Errorf("ward: %w", err)
				}
				d := newDigest()
				for _, mg := range link.Merges {
					d.int(mg.A)
					d.int(mg.B)
					d.f64(mg.Distance)
					d.int(mg.Size)
				}
				for _, id := range link.CutByDistance(wardThreshold) {
					d.int(id)
				}
				return d.sum(), nil
			}})
	}

	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs, nil
}

// wardQuestions is how many Ward clusterings the set asks: a fifth of
// the 20 questions, so the p90 falls inside the Ward latency cluster and
// the p50 inside the GroupStats one, never on the edge between two.
const wardQuestions = 4

// wardViews picks the (machine, variant) views whose top-down tuples the
// Ward questions cluster: views that carry the tuple, alternating over
// machines first.
func wardViews(t *thicket.Thicket, machines, variants []string) [][2]string {
	var out [][2]string
	for _, v := range variants {
		for _, m := range machines {
			if len(out) == wardQuestions {
				return out
			}
			if t.Where(frame.MetaEq("machine", m), frame.MetaEq("variant", v), frame.HasMetric("memory_bound")).NumRows() > 0 {
				out = append(out, [2]string{m, v})
			}
		}
	}
	return out
}

// passResult is one pass of the question set over a thicket.
type passResult struct {
	kinds     []string
	latencies []float64 // ms, in question order
	digests   []uint64
}

// askAll answers every question once. With cold set, the engine cache is
// cleared and the CPU caches evicted before each question, so no answer
// comes from an earlier one.
func askAll(qs []question, t *thicket.Thicket, cold bool, tr *tracer, parent, iter int) (passResult, error) {
	eng := frame.DefaultEngine()
	r := passResult{latencies: make([]float64, len(qs)), digests: make([]uint64, len(qs))}
	for i, q := range qs {
		r.kinds = append(r.kinds, q.kind)
		if cold {
			eng.ClearCache()
			evictCPUCaches()
		}
		layer := "frame"
		if q.kind == kindWard {
			layer = "cluster"
		}
		id := tr.begin("question."+q.kind, layer, parent, iter)
		start := time.Now()
		d, err := q.ask(t, tr, id, iter)
		r.latencies[i] = ms(time.Since(start))
		tr.end(id)
		if err != nil {
			return r, fmt.Errorf("question %s: %w", q.name, err)
		}
		r.digests[i] = d
	}
	return r, nil
}

// evictBuf is twice the 2 MiB per-core L2 of the reference host.
var evictBuf = make([]byte, 4<<20)

// evictCPUCaches overwrites evictBuf so a cold question also starts with
// the previous question's data out of the CPU caches: its latency then
// does not depend on which question ran before it, an order the seed
// permutes.
func evictCPUCaches() {
	for i := 0; i < len(evictBuf); i += 64 {
		evictBuf[i]++
	}
}

// answers is the cold-then-warm answer step that ends every iteration.
type answers struct {
	cold, warm   passResult
	hits, misses uint64
	rows         int
	mismatches   int // questions whose warm answer differs from the cold one
}

// answerAll asks the question set cold, then warm, and counts the warm
// pass's cache hits.
func answerAll(qs []question, t *thicket.Thicket, tr *tracer, parent, iter int) (*answers, error) {
	a := &answers{rows: t.NumRows()}
	// Start the analysis on a collected heap, as a separate analysis
	// process would, so the garbage the execute phase left does not set
	// question latency. The collection counts in the iteration's time.
	tr.region("runtime.GC", "harness", parent, iter, runtime.GC)
	var err error
	if a.cold, err = askAll(qs, t, true, tr, parent, iter); err != nil {
		return nil, err
	}
	before := frame.DefaultEngine().CacheStats()
	if a.warm, err = askAll(qs, t, false, tr, parent, iter); err != nil {
		return nil, err
	}
	after := frame.DefaultEngine().CacheStats()
	a.hits, a.misses = after.Hits-before.Hits, after.Misses-before.Misses
	for i := range qs {
		if a.cold.digests[i] != a.warm.digests[i] {
			a.mismatches++
		}
	}
	return a, nil
}

// sameAnswers counts questions whose digests differ between two passes.
func sameAnswers(a, b []uint64) int {
	n := 0
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			n++
		}
	}
	return n
}

func distinct(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Strings(out)
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
