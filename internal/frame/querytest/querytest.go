// Package querytest is the differential oracle for the frame query
// engine: every construct the engine vectorizes — predicate pushdown,
// word-at-a-time filter kernels, fused grouped aggregation, result
// caching — is checked against a deliberately naive row-at-a-time
// reference evaluator that uses only the frame's public accessors and
// none of the engine's machinery. The harness generates seeded synthetic
// campaigns and randomized conjunctions of leaf predicates under nested
// Nots, evaluates both engines, and requires byte-identical results
// (float comparisons via math.Float64bits, not tolerances): the engine's
// gather order and summary arithmetic are part of its contract.
package querytest

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"rajaperf/internal/frame"
)

// Spec is a randomized query conjunct: a leaf predicate under zero or
// more Nots. It lowers to both an engine predicate (Pred) and a naive
// per-row truth evaluation (Eval), and spells itself for failure
// messages.
type Spec interface {
	Pred() frame.Pred
	Eval(f *frame.Frame, r int32) bool
	String() string
}

type notSpec struct{ p Spec }
type metaEqSpec struct{ key, val string }
type nodeEqSpec struct{ name string }
type metricCmpSpec struct {
	metric string
	op     frame.CmpOp
	x      float64
}
type hasMetricSpec struct{ metric string }

func (s *notSpec) Pred() frame.Pred       { return frame.Not(s.p.Pred()) }
func (s *metaEqSpec) Pred() frame.Pred    { return frame.MetaEq(s.key, s.val) }
func (s *nodeEqSpec) Pred() frame.Pred    { return frame.NodeEq(s.name) }
func (s *metricCmpSpec) Pred() frame.Pred { return frame.MetricCmp(s.metric, s.op, s.x) }
func (s *hasMetricSpec) Pred() frame.Pred { return frame.HasMetric(s.metric) }

func (s *notSpec) Eval(f *frame.Frame, r int32) bool { return !s.p.Eval(f, r) }

func (s *metaEqSpec) Eval(f *frame.Frame, r int32) bool {
	return f.MetaString(f.ProfIDs()[r], s.key) == s.val
}

func nodeName(f *frame.Frame, r int32) (string, bool) {
	id := f.NodeIDs()[r]
	if id < 0 {
		return "", false
	}
	return f.NodeDict().Name(id), true
}

func (s *nodeEqSpec) Eval(f *frame.Frame, r int32) bool {
	name, ok := nodeName(f, r)
	return ok && name == s.name
}

func cmpEval(op frame.CmpOp, v, x float64) bool {
	switch op {
	case frame.CmpLt:
		return v < x
	case frame.CmpLe:
		return v <= x
	case frame.CmpGt:
		return v > x
	case frame.CmpGe:
		return v >= x
	case frame.CmpEq:
		return v == x
	case frame.CmpNe:
		return v != x
	}
	return false
}

func (s *metricCmpSpec) Eval(f *frame.Frame, r int32) bool {
	col := f.Column(s.metric)
	if col == nil {
		return false
	}
	v, ok := col.Value(r)
	return ok && cmpEval(s.op, v, s.x)
}

func (s *hasMetricSpec) Eval(f *frame.Frame, r int32) bool {
	col := f.Column(s.metric)
	if col == nil {
		return false
	}
	_, ok := col.Value(r)
	return ok
}

func (s *notSpec) String() string    { return "not(" + s.p.String() + ")" }
func (s *metaEqSpec) String() string { return fmt.Sprintf("meta[%s]==%q", s.key, s.val) }
func (s *nodeEqSpec) String() string { return fmt.Sprintf("node==%q", s.name) }
func (s *metricCmpSpec) String() string {
	return fmt.Sprintf("metric[%s] %s %v", s.metric, s.op, s.x)
}
func (s *hasMetricSpec) String() string { return fmt.Sprintf("has[%s]", s.metric) }

// Vocabulary is the value space a corpus and its queries draw from.
type Vocabulary struct {
	MetaKeys []string
	MetaVals []string
	Nodes    []string
	Metrics  []string
}

// DefaultVocabulary returns the vocabulary the seeded campaigns use: a
// few machines/variants/schedules, kernel-like node names (plus a never
// occurring one), metric names (plus one absent from every frame).
func DefaultVocabulary() Vocabulary {
	return Vocabulary{
		MetaKeys: []string{"machine", "variant", "executor.schedule", "sometimes.key"},
		MetaVals: []string{"SPR-DDR", "SPR-HBM", "P9-V100", "RAJA_Seq", "RAJA_OpenMP", "static", "dynamic", "17", frame.MissingKey},
		Nodes:    []string{"Stream_TRIAD", "Basic_DAXPY", "Polybench_GEMM", "Apps_PRESSURE", "Lcals_FIRST_MIN", "Never_Present"},
		Metrics:  []string{"time", "flops", "bytes", "imbalance_pct", "never_metric"},
	}
}

// Corpus builds a seeded synthetic campaign frame: profiles with
// partially missing metadata keys, kernel rows with partially missing
// metrics, occasional empty profiles, occasional node-less rows (empty
// paths), and occasional duplicate (node, profile) rows — every shape
// the engine's scan must survive.
func Corpus(seed int64, profiles int) *frame.Frame {
	return CorpusIncremental(seed, profiles).Finish()
}

// CorpusIncremental builds the same campaign and returns the live
// Builder, to Snapshot mid-stream or append to.
func CorpusIncremental(seed int64, profiles int) *frame.Builder {
	b := frame.NewBuilder()
	buildCorpus(rand.New(rand.NewSource(seed)), profiles, b)
	return b
}

func buildCorpus(r *rand.Rand, profiles int, b *frame.Builder) {
	v := DefaultVocabulary()
	for p := 0; p < profiles; p++ {
		meta := map[string]any{
			"machine": v.MetaVals[r.Intn(3)],
			"variant": v.MetaVals[3+r.Intn(2)],
		}
		if r.Intn(3) != 0 {
			meta["executor.schedule"] = v.MetaVals[5+r.Intn(2)]
		}
		if r.Intn(4) == 0 {
			meta["sometimes.key"] = 17 // non-string: exercises fmt.Sprint keys
		}
		b.StartProfile(meta)
		if r.Intn(10) == 0 {
			continue // empty profile: a range the scan must skip
		}
		rows := 1 + r.Intn(8)
		for i := 0; i < rows; i++ {
			var path []string
			if r.Intn(12) == 0 {
				path = nil // node-less row
			} else {
				node := v.Nodes[r.Intn(len(v.Nodes)-1)] // Never_Present stays absent
				path = []string{"suite", node}
				if r.Intn(6) == 0 {
					path = []string{"suite", "sub", node}
				}
			}
			metrics := map[string]float64{}
			for _, m := range v.Metrics[:len(v.Metrics)-1] { // never_metric stays absent
				switch r.Intn(4) {
				case 0: // missing cell
				case 1:
					metrics[m] = 0
				case 2:
					metrics[m] = -1 + 2*r.Float64()
				default:
					metrics[m] = float64(r.Intn(5)) * 0.25
				}
			}
			b.AddRow(path, metrics)
		}
	}
}

// RandomBase returns a random ascending base selection over f's rows
// (nil about a third of the time, meaning the full frame; sometimes
// empty).
func RandomBase(r *rand.Rand, f *frame.Frame) []int32 {
	switch r.Intn(3) {
	case 0:
		return nil
	case 1:
		sel := []int32{}
		for i := 0; i < f.NumRows(); i++ {
			if r.Intn(2) == 0 {
				sel = append(sel, int32(i))
			}
		}
		return sel
	default:
		sel := []int32{}
		for i := 0; i < f.NumRows(); i++ {
			if r.Intn(5) == 0 {
				sel = append(sel, int32(i))
			}
		}
		return sel
	}
}

// RandomSpec generates a random conjunct: a leaf under up to depth
// nested Nots.
func RandomSpec(r *rand.Rand, v Vocabulary, depth int) Spec {
	if depth > 0 && r.Intn(2) == 0 {
		return &notSpec{p: RandomSpec(r, v, depth-1)}
	}
	switch r.Intn(4) {
	case 0:
		return &metaEqSpec{key: pick(r, v.MetaKeys), val: pick(r, v.MetaVals)}
	case 1:
		return &nodeEqSpec{name: pick(r, v.Nodes)}
	case 2:
		return &metricCmpSpec{
			metric: pick(r, v.Metrics),
			op:     frame.CmpOp(r.Intn(6)),
			x:      []float64{-0.5, 0, 0.25, 0.5, 1}[r.Intn(5)],
		}
	default:
		return &hasMetricSpec{metric: pick(r, v.Metrics)}
	}
}

func pick(r *rand.Rand, xs []string) string { return xs[r.Intn(len(xs))] }

// --- The naive reference evaluator ---

// RefRows is the reference filter: a plain ascending loop evaluating
// every predicate on every row.
func RefRows(f *frame.Frame, base []int32, specs []Spec) []int32 {
	out := []int32{}
	eachRow(f, base, func(r int32) {
		if passAll(f, r, specs) {
			out = append(out, r)
		}
	})
	return out
}

// RefGroups is the reference grouped filter: surviving rows partitioned
// by the profile's stringified metadata value of key.
func RefGroups(f *frame.Frame, base []int32, specs []Spec, key string) map[string][]int32 {
	out := map[string][]int32{}
	eachRow(f, base, func(r int32) {
		if passAll(f, r, specs) {
			k := f.MetaString(f.ProfIDs()[r], key)
			out[k] = append(out[k], r)
		}
	})
	return out
}

// RefStats is the reference grouped aggregation, row at a time: gather
// per (group, node) in ascending row order, sort node names, summarize
// with a full sort for the median. grouped false aggregates everything
// under the "" key.
func RefStats(f *frame.Frame, base []int32, specs []Spec, key string, grouped bool, metric string) frame.GroupStats {
	col := f.Column(metric)
	groupOf := func(r int32) string {
		if !grouped {
			return ""
		}
		return f.MetaString(f.ProfIDs()[r], key)
	}
	seen := map[string]bool{}
	byGroupNode := map[string]map[string][]float64{}
	eachRow(f, base, func(r int32) {
		if !passAll(f, r, specs) {
			return
		}
		g := groupOf(r)
		seen[g] = true
		if col == nil {
			return
		}
		name, ok := nodeName(f, r)
		if !ok {
			return
		}
		if v, valid := col.Value(r); valid {
			m := byGroupNode[g]
			if m == nil {
				m = map[string][]float64{}
				byGroupNode[g] = m
			}
			m[name] = append(m[name], v)
		}
	})
	out := frame.GroupStats{}
	for g := range seen {
		if col == nil {
			out[g] = nil
			continue
		}
		nodes := make([]string, 0, len(byGroupNode[g]))
		for name := range byGroupNode[g] {
			nodes = append(nodes, name)
		}
		sort.Strings(nodes)
		rows := make([]frame.Stats, len(nodes))
		for i, name := range nodes {
			rows[i] = refSummarize(name, metric, byGroupNode[g][name])
		}
		out[g] = rows
	}
	return out
}

// RefLastPositive is the reference per-node last-positive resolution.
func RefLastPositive(f *frame.Frame, base []int32, specs []Spec, metric string) []float64 {
	out := make([]float64, f.NodeDict().Len())
	col := f.Column(metric)
	if col == nil {
		return out
	}
	eachRow(f, base, func(r int32) {
		if !passAll(f, r, specs) {
			return
		}
		if id := f.NodeIDs()[r]; id >= 0 {
			if v, ok := col.Value(r); ok && v > 0 {
				out[id] = v
			}
		}
	})
	return out
}

// refSummarize summarizes naively: same accumulation order as the
// engine (ascending row order) but a full sort for the median. The two
// middle values of an even-length sample are combined with the same
// 0.5*(a+b) expression the engine uses, so results match bit for bit.
func refSummarize(node, metric string, xs []float64) frame.Stats {
	s := frame.Stats{Node: node, Metric: metric, Count: len(xs)}
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
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	k := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[k]
	} else {
		s.Median = 0.5 * (sorted[k-1] + sorted[k])
	}
	return s
}

func eachRow(f *frame.Frame, base []int32, fn func(r int32)) {
	if base == nil {
		for r := int32(0); r < int32(f.NumRows()); r++ {
			fn(r)
		}
		return
	}
	for _, r := range base {
		fn(r)
	}
}

func passAll(f *frame.Frame, r int32, specs []Spec) bool {
	for _, s := range specs {
		if !s.Eval(f, r) {
			return false
		}
	}
	return true
}

// Preds lowers a spec list to engine predicates.
func Preds(specs []Spec) []frame.Pred {
	out := make([]frame.Pred, len(specs))
	for i, s := range specs {
		out[i] = s.Pred()
	}
	return out
}

// SpecsString spells a spec list for failure messages.
func SpecsString(specs []Spec) string {
	parts := make([]string, len(specs))
	for i, s := range specs {
		parts[i] = s.String()
	}
	return strings.Join(parts, ", ")
}
