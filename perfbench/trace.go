package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rajaperf/internal/caliper"
)

// layerPassIter is the iteration id of spans recorded by the layer pass.
const layerPassIter = -1

// span is one timed call the harness made into a layer of the program.
// Start and End are offsets from the tracer's origin.
type span struct {
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index into the span list, -1 for a root
	Iter   int           `json:"iter"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced iterations run the same code with tracing off.
// It is safe for concurrent use: the live analyzer records from its own
// goroutine.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name, layer string, parent, iter int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: now, End: now, Parent: parent, Iter: iter})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose bounds the harness learned after the fact,
// such as a campaign spec reported through Options.Progress.
func (t *tracer) add(name, layer string, parent, iter int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer,
		Start: start.Sub(t.origin), End: end.Sub(t.origin), Parent: parent, Iter: iter})
	return len(t.spans) - 1
}

// region runs f inside a span.
func (t *tracer) region(name, layer string, parent, iter int, f func()) {
	id := t.begin(name, layer, parent, iter)
	f()
	t.end(id)
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children are clipped to the
// parent's interval and overlapping children (concurrent work) count once.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, spans, kids[i])
	}
	return self
}

// covered is the length of the union of the children's intervals within
// the parent's interval.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// iterAttribution is one traced iteration's split: the root span's
// duration, the part of it some layer span covers, and each layer's self
// time.
type iterAttribution struct {
	Wall       time.Duration
	Attributed time.Duration
	Layers     map[string]time.Duration
}

// attribute splits every iteration rooted at a span named rootName.
func attribute(spans []span, rootName string) map[int]iterAttribution {
	self := selfTimes(spans)
	out := map[int]iterAttribution{}
	for i, s := range spans {
		if s.Parent == -1 && s.Name == rootName {
			out[s.Iter] = iterAttribution{
				Wall:       s.End - s.Start,
				Attributed: s.End - s.Start - self[i],
				Layers:     map[string]time.Duration{},
			}
		}
	}
	for i, s := range spans {
		a, ok := out[s.Iter]
		if !ok || s.Parent == -1 {
			continue
		}
		a.Layers[s.Layer] += self[i]
	}
	return out
}

// exportTrace writes the spans as JSON and the per-layer self times as a
// Caliper profile with regions workload › iteration › layer, so
// rajaperf-analyze composes benchmark runs like kernel profiles.
func exportTrace(dir, stem, workload string, spans []span, meta map[string]any) (string, error) {
	data, err := json.Marshal(spans)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".spans.json"), data, 0o644); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	p := traceProfile(workload, spans, meta)
	path := filepath.Join(dir, stem+caliper.FileExt)
	if err := p.WriteFile(path); err != nil {
		return "", err
	}
	return path, nil
}

// traceProfile folds spans into a profile: one record per (iteration,
// layer) with the layer's self time under "time" and its span count, plus
// one record per iteration carrying the iteration's wall time.
func traceProfile(workload string, spans []span, meta map[string]any) *caliper.Profile {
	self := selfTimes(spans)
	type key struct {
		iter  int
		layer string
	}
	acc := map[key]*caliper.Record{}
	iterRec := map[int]*caliper.Record{}
	var iters []int
	iterName := func(it int) string {
		if it == layerPassIter {
			return "layer_pass"
		}
		return fmt.Sprintf("iteration_%03d", it)
	}
	for i, s := range spans {
		ir, ok := iterRec[s.Iter]
		if !ok {
			ir = &caliper.Record{Path: []string{workload, iterName(s.Iter)}, Metrics: map[string]float64{"time": 0}}
			iterRec[s.Iter] = ir
			iters = append(iters, s.Iter)
		}
		if s.Parent == -1 {
			ir.Metrics["time"] += (s.End - s.Start).Seconds()
		}
		k := key{s.Iter, s.Layer}
		r, ok := acc[k]
		if !ok {
			r = &caliper.Record{Path: []string{workload, iterName(s.Iter), s.Layer}, Metrics: map[string]float64{}}
			acc[k] = r
		}
		r.Metrics["time"] += self[i].Seconds()
		r.Metrics["count"]++
	}
	sort.Ints(iters)
	total := 0.0
	for _, it := range iters {
		total += iterRec[it].Metrics["time"]
	}
	p := &caliper.Profile{Metadata: meta}
	p.Records = append(p.Records, caliper.Record{Path: []string{workload}, Metrics: map[string]float64{"time": total}})
	for _, it := range iters {
		p.Records = append(p.Records, *iterRec[it])
		var layers []string
		for k := range acc {
			if k.iter == it {
				layers = append(layers, k.layer)
			}
		}
		sort.Strings(layers)
		for _, l := range layers {
			p.Records = append(p.Records, *acc[key{it, l}])
		}
	}
	return p
}
