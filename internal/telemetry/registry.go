package telemetry

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Name composes a canonical metric name from a base and label pairs:
//
//	Name("campaign.retries", "cause", "timeout")
//	  -> `campaign.retries{cause="timeout"}`
//
// Labels sort by key so the same label set always yields the same name.
// Call it once at setup and keep the returned handle — label formatting
// is not a hot-path operation.
func Name(base string, labels ...string) string {
	if len(labels) == 0 {
		return base
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(p.v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// SplitName splits a canonical metric name into its base and label
// suffix (`{...}` included, or "" when unlabeled).
func SplitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// Registry is a process-wide metric namespace: named counters, gauges,
// histograms, and callback gauges. Lookup (get-or-create) takes a lock
// and is a setup-time operation; the returned handles are lock-free.
// All methods are safe for concurrent use. The zero Registry is ready.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() float64
}

// defaultRegistry is the process-wide registry instrumented layers
// record into unless a caller wires a specific one.
var defaultRegistry Registry

// Default returns the process-wide registry.
func Default() *Registry { return &defaultRegistry }

// Counter returns the named counter, creating it on first use. Optional
// label pairs are folded into the name via Name.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	name = Name(name, labels...)
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		if r.counters == nil {
			r.counters = map[string]*Counter{}
		}
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	name = Name(name, labels...)
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		if r.gauges == nil {
			r.gauges = map[string]*Gauge{}
		}
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	name = Name(name, labels...)
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		if r.hists == nil {
			r.hists = map[string]*Histogram{}
		}
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// GaugeFunc registers (or replaces) a callback gauge: fn is evaluated
// at snapshot time, so layers that already keep their own counters
// (pool instrumentation, the query cache) expose them without double
// bookkeeping. fn must be safe for concurrent calls.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.funcs == nil {
		r.funcs = map[string]func() float64{}
	}
	r.funcs[name] = fn
}

// MetricValue is one scalar metric in a snapshot.
type MetricValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistValue is one histogram in a snapshot: the bucket copy plus
// derived summary statistics.
type HistValue struct {
	Name string       `json:"name"`
	Hist HistSnapshot `json:"-"`

	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

// Snapshot is a deterministic point-in-time view of a registry: every
// slice sorted by metric name, values copied. Snapshots of the same
// registry state are equal regardless of when metrics were created.
type Snapshot struct {
	Taken    time.Time     `json:"taken"`
	Counters []MetricValue `json:"counters"`
	Gauges   []MetricValue `json:"gauges"`
	Hists    []HistValue   `json:"histograms"`
}

// Snapshot captures the registry. Callback gauges are evaluated outside
// the registry lock (they may themselves take locks), then merged into
// the gauge list under their registered names.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	counters := make([]MetricValue, 0, len(r.counters))
	for name, c := range r.counters {
		counters = append(counters, MetricValue{Name: name, Value: float64(c.Value())})
	}
	gauges := make([]MetricValue, 0, len(r.gauges)+len(r.funcs))
	for name, g := range r.gauges {
		gauges = append(gauges, MetricValue{Name: name, Value: g.Value()})
	}
	type histRef struct {
		name string
		h    *Histogram
	}
	hrefs := make([]histRef, 0, len(r.hists))
	for name, h := range r.hists {
		hrefs = append(hrefs, histRef{name, h})
	}
	funcs := make([]struct {
		name string
		fn   func() float64
	}, 0, len(r.funcs))
	for name, fn := range r.funcs {
		funcs = append(funcs, struct {
			name string
			fn   func() float64
		}{name, fn})
	}
	r.mu.RUnlock()

	for _, f := range funcs {
		gauges = append(gauges, MetricValue{Name: f.name, Value: f.fn()})
	}
	s := Snapshot{Taken: time.Now(), Counters: counters, Gauges: gauges}
	for _, hr := range hrefs {
		s.Hists = append(s.Hists, histValue(hr.name, hr.h.Snapshot()))
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	return s
}

// histValue derives the summary fields from a histogram snapshot.
func histValue(name string, hs HistSnapshot) HistValue {
	hv := HistValue{
		Name:  name,
		Hist:  hs,
		Count: hs.Count,
		Sum:   hs.Sum,
		Mean:  hs.Mean(),
		P50:   hs.Quantile(0.50),
		P90:   hs.Quantile(0.90),
		P99:   hs.Quantile(0.99),
	}
	if hs.Count > 0 {
		hv.Max = hs.Quantile(1)
	}
	return hv
}

// Sub returns the delta snapshot s minus prev: counters and histogram
// mass recorded between the two capture points (gauges keep their
// current value — an instantaneous reading has no meaningful delta).
// Metrics absent from prev are treated as zero, so new metrics appear
// with their full value.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{Taken: s.Taken, Gauges: append([]MetricValue(nil), s.Gauges...)}
	prevC := make(map[string]float64, len(prev.Counters))
	for _, c := range prev.Counters {
		prevC[c.Name] = c.Value
	}
	for _, c := range s.Counters {
		out.Counters = append(out.Counters, MetricValue{Name: c.Name, Value: c.Value - prevC[c.Name]})
	}
	prevH := make(map[string]HistSnapshot, len(prev.Hists))
	for _, h := range prev.Hists {
		prevH[h.Name] = h.Hist
	}
	for _, h := range s.Hists {
		out.Hists = append(out.Hists, histValue(h.Name, h.Hist.Sub(prevH[h.Name])))
	}
	return out
}
