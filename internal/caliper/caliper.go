// Package caliper is a performance-annotation and profiling library
// modeled on LLNL Caliper (Boehme et al., SC 2016) as the paper integrates
// it into the RAJA Performance Suite: kernels are annotated as nested
// regions, analytic and hardware metrics are attached to regions, per-run
// metadata comes from package adiak, and each run serializes to one
// profile file (the ".cali" analog, encoded as JSON) that package thicket
// reads back for analysis.
//
// Measurement is organized as runtime-configurable services, Caliper's
// CALI_CONFIG shape: counter sources (see CounterSource; the "runtime"
// source is the PAPI analog) are sampled at region boundaries and their
// deltas recorded as per-region metrics, a streaming event-trace service
// (Tracer) emits Chrome-trace events, and the executor's load-imbalance
// service is enabled through the same Services set.
//
// The recorder keeps a tree of nodes, children looked up by region name,
// and a stack of the open regions' nodes: Begin, End and SetMetric work
// on the top node, and SetMetricAt walks its path from the root, so none
// joins a path or allocates on a node that already has a record. Begin
// and End time their own work (counter sampling, bookkeeping, trace
// emission); Overhead reports that cost per closed region, measured on
// the run's own regions.
//
// # Concurrency contract
//
// Region structure is per-driver: Begin, End and Overhead must be
// called, properly nested, from the single goroutine driving the run
// (Caliper's per-thread annotation stacks). Metric recording (SetMetric
// and SetMetricAt) and AddMetadata are safe to call from any goroutine at
// any time. Counter sources are sampled only from the driving goroutine,
// outside the recorder's locks, so a slow source never blocks concurrent
// metric writers. Profile may be called concurrently with metric and
// metadata writers; it snapshots both under their locks.
package caliper

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// PathSep joins region names into node paths (Record.PathKey). Region
// names must not contain it: the recorder keys nodes by name, so "a/b"
// and the child "b" of "a" are distinct nodes whose keys would collide.
const PathSep = "/"

// Record is the measurement set of one call-tree node.
type Record struct {
	Path    []string           `json:"path"`
	Metrics map[string]float64 `json:"metrics"`
}

// Node returns the node name (last path element).
func (r *Record) Node() string {
	if len(r.Path) == 0 {
		return ""
	}
	return r.Path[len(r.Path)-1]
}

// PathKey returns the joined path string.
func (r *Record) PathKey() string { return strings.Join(r.Path, PathSep) }

// Config selects the measurement services a Recorder runs with.
type Config struct {
	// Sources are the counter sources sampled at region boundaries;
	// each source's counters become per-region metrics (deltas for
	// cumulative counters, End-time values for gauges).
	Sources []CounterSource
	// Tracer, when non-nil, receives one complete event per closed
	// region on the driver track.
	Tracer *Tracer
}

// node is one call-tree node of a recorder. Its record is created when
// the node is itself touched (Begin, or a metric write naming it), not
// when a longer path merely walks through it.
type node struct {
	path     []string
	children map[string]*node
	rec      *Record
}

// child returns n's child named name, creating the node (but not its
// record) if missing.
func (n *node) child(name string) *node {
	if ch, ok := n.children[name]; ok {
		return ch
	}
	if n.children == nil {
		n.children = map[string]*node{}
	}
	ch := &node{path: append(n.path[:len(n.path):len(n.path)], name)}
	n.children[name] = ch
	return ch
}

// frame is the driver-side state of one open region: the start time and
// the counter sample taken at entry (nil when no sources are enabled).
// Frames are reused by depth, so a region's sample buffer is allocated
// once per nesting level.
type frame struct {
	start  time.Time
	sample []float64
}

// Recorder collects annotations and metrics for one run under a set of
// measurement services. See the package comment for the concurrency
// contract.
type Recorder struct {
	cfg      Config
	counters []Counter // flattened across cfg.Sources, in source order

	// mu guards the region tree, the open-region stack and the record
	// order. It is held only for the in-memory bookkeeping of each
	// operation — never across counter sampling or trace emission.
	mu    sync.Mutex
	root  node
	stack []*node
	order []*Record

	// Driver-only state, touched by Begin, End and Overhead alone: the
	// open regions' frames, End's sample buffer, and the annotation
	// path's own cost so far.
	frames    []frame
	endSample []float64
	spent     time.Duration
	closed    int

	// metaMu guards run metadata separately, so metadata writers never
	// contend with the measurement path.
	metaMu   sync.Mutex
	metadata map[string]any
}

// NewRecorderWith returns an empty recorder with the given measurement
// services enabled.
func NewRecorderWith(cfg Config) *Recorder {
	c := &Recorder{cfg: cfg, metadata: map[string]any{}}
	for _, src := range cfg.Sources {
		c.counters = append(c.counters, src.Counters()...)
	}
	return c
}

// AddMetadata attaches a run attribute (Adiak-style) to the profile.
func (c *Recorder) AddMetadata(key string, value any) {
	c.metaMu.Lock()
	c.metadata[key] = value
	c.metaMu.Unlock()
}

// sampleCounters reads every enabled counter source into buf (nil, or a
// buffer it returned before) and returns it. Called from the driving
// goroutine outside c.mu.
func (c *Recorder) sampleCounters(buf []float64) []float64 {
	if len(c.counters) == 0 {
		return nil
	}
	if buf == nil {
		buf = make([]float64, len(c.counters))
	}
	off := 0
	for _, src := range c.cfg.Sources {
		n := len(src.Counters())
		src.Sample(buf[off : off+n])
		off += n
	}
	return buf
}

// Begin opens a region. Regions nest: a Begin inside an open region
// creates a child node. Counter sources are sampled on entry, and the
// region's start time is taken last, so its "time" excludes the
// recorder's own bookkeeping.
func (c *Recorder) Begin(name string) {
	entered := time.Now()
	c.mu.Lock()
	parent := &c.root
	if len(c.stack) > 0 {
		parent = c.stack[len(c.stack)-1]
	}
	n := parent.child(name)
	c.recordLocked(n)
	c.stack = append(c.stack, n)
	c.mu.Unlock()

	c.frames = slices.Grow(c.frames, 1)[:len(c.frames)+1]
	f := &c.frames[len(c.frames)-1]
	f.sample = c.sampleCounters(f.sample)
	f.start = time.Now()
	c.spent += f.start.Sub(entered)
}

// End closes the innermost open region, accumulating its inclusive wall
// time into the "time" metric, bumping "count", and recording the
// region's counter-source deltas. It returns an error if name does not
// match the innermost region (misnested annotations).
func (c *Recorder) End(name string) error {
	now := time.Now()
	sample := c.sampleCounters(c.endSample)
	c.endSample = sample
	c.mu.Lock()
	if len(c.stack) == 0 {
		c.mu.Unlock()
		return fmt.Errorf("caliper: End(%q) with no open region", name)
	}
	n := c.stack[len(c.stack)-1]
	if top := n.path[len(n.path)-1]; top != name {
		c.mu.Unlock()
		return fmt.Errorf("caliper: End(%q) does not match open region %q", name, top)
	}
	f := &c.frames[len(c.frames)-1]
	elapsed := now.Sub(f.start)
	m := n.rec.Metrics
	m["time"] += elapsed.Seconds()
	m["count"]++
	for i, ctr := range c.counters {
		if ctr.Gauge {
			m[ctr.Name] = sample[i]
		} else {
			m[ctr.Name] += sample[i] - f.sample[i]
		}
	}
	c.stack = c.stack[:len(c.stack)-1]
	c.mu.Unlock()
	c.frames = c.frames[:len(c.frames)-1]
	if tr := c.cfg.Tracer; tr != nil {
		tr.RegionEvent(name, f.start, elapsed)
	}
	c.closed++
	c.spent += time.Since(now)
	return nil
}

// currentLocked returns the innermost open region's node, or the "main"
// pseudo-root's when none is open. Callers hold c.mu.
func (c *Recorder) currentLocked() *node {
	if len(c.stack) == 0 {
		return c.root.child("main")
	}
	return c.stack[len(c.stack)-1]
}

// SetMetric records metric value v on the innermost open region, or on the
// root pseudo-region if none is open. Repeated calls overwrite.
func (c *Recorder) SetMetric(metric string, v float64) {
	c.mu.Lock()
	c.recordLocked(c.currentLocked()).Metrics[metric] = v
	c.mu.Unlock()
}

// SetMetricAt records metric v on an explicit region path, creating the
// node if needed. Analysis passes use it to attach modeled hardware
// counters to kernel nodes after the run.
func (c *Recorder) SetMetricAt(path []string, metric string, v float64) {
	c.mu.Lock()
	c.recordLocked(c.nodeLocked(path)).Metrics[metric] = v
	c.mu.Unlock()
}

// nodeLocked walks path from the root, creating missing nodes. Callers
// hold c.mu.
func (c *Recorder) nodeLocked(path []string) *node {
	n := &c.root
	for _, name := range path {
		n = n.child(name)
	}
	return n
}

// recordLocked returns n's record, creating it — and fixing its place in
// first-touch order — if missing. Callers hold c.mu.
func (c *Recorder) recordLocked(n *node) *Record {
	if n.rec == nil {
		n.rec = &Record{Path: n.path, Metrics: map[string]float64{}}
		c.order = append(c.order, n.rec)
	}
	return n.rec
}

// Profile snapshots the recorder into a serializable profile. Records
// appear in first-touch order; metadata keys serialize sorted.
func (c *Recorder) Profile() *Profile {
	p := &Profile{Metadata: map[string]any{}}
	c.metaMu.Lock()
	for k, v := range c.metadata {
		p.Metadata[k] = v
	}
	c.metaMu.Unlock()
	c.mu.Lock()
	for _, r := range c.order {
		cp := Record{
			Path:    append([]string(nil), r.Path...),
			Metrics: make(map[string]float64, len(r.Metrics)),
		}
		for m, v := range r.Metrics {
			cp.Metrics[m] = v
		}
		p.Records = append(p.Records, cp)
	}
	c.mu.Unlock()
	return p
}

// Profile is one run's worth of measurements: per-run metadata plus one
// record per call-tree node — the in-memory form of a .cali file.
type Profile struct {
	Metadata map[string]any `json:"metadata"`
	Records  []Record       `json:"records"`
}

// Find returns the record whose node name (last path element) is name, or
// nil if absent.
func (p *Profile) Find(name string) *Record {
	for i := range p.Records {
		if p.Records[i].Node() == name {
			return &p.Records[i]
		}
	}
	return nil
}

// Validate checks structural invariants: nonempty paths, no duplicate
// paths, finite metric values.
func (p *Profile) Validate() error {
	seen := map[string]bool{}
	for i, r := range p.Records {
		key := r.PathKey()
		if err := recordError(i, r.Path, key, seen[key]); err != nil {
			return err
		}
		seen[key] = true
		for m, v := range r.Metrics {
			if err := metricError(key, m, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// recordError and metricError are Validate's rules, which a decoded
// Rows is held to as well. seen reports whether an earlier record had
// the path key.
func recordError(i int, path []string, key string, seen bool) error {
	switch {
	case len(path) == 0:
		return fmt.Errorf("caliper: record %d has empty path", i)
	case seen:
		return fmt.Errorf("caliper: duplicate record path %q", key)
	}
	return nil
}

func metricError(key, name string, v float64) error {
	if v != v || v > 1e308 || v < -1e308 {
		return fmt.Errorf("caliper: record %q metric %q is not finite", key, name)
	}
	return nil
}
