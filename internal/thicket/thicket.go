// Package thicket is a Go analog of LLNL Thicket (Brink et al., HPDC
// 2023): exploratory data analysis over multi-run performance experiments.
// A Thicket composes many Caliper profiles into three linked components —
// a performance DataFrame indexed by (node, profile) holding one column
// per metric, a metadata table with one row per profile, and an aggregated
// statistics frame — and provides the composition operations the paper
// uses: composition, Where, GroupBy over metadata, and per-node
// aggregation.
//
// Storage is the columnar core of package frame: a Thicket is a *view* —
// an immutable Frame plus an ascending row selection. Where and GroupBy
// allocate selections, never row copies; NodeVector walks the node's row
// postings.
// Views share the frame, so a Thicket and everything derived from it must
// be treated as read-only.
package thicket

import (
	"fmt"
	"sort"
	"time"

	"rajaperf/internal/caliper"
	"rajaperf/internal/frame"
)

// ProfileID identifies one run within a Thicket.
type ProfileID int

// Thicket composes multiple performance profiles as a view over a
// columnar frame.
type Thicket struct {
	f   *frame.Frame
	sel []int32 // ascending row selection; nil = every frame row
}

// fromFrame wraps a whole frame.
func fromFrame(f *frame.Frame) *Thicket { return &Thicket{f: f} }

// FromProfiles builds a Thicket from in-memory Caliper profiles,
// ingesting them in order into one presized frame builder.
func FromProfiles(ps []*caliper.Profile) *Thicket {
	defer observeCompose(time.Now(), len(ps))
	rows := 0
	for _, p := range ps {
		rows += len(p.Records)
	}
	b := frame.NewBuilder()
	b.Reserve(rows)
	for _, p := range ps {
		ingest(b, p)
	}
	return fromFrame(b.Finish())
}

// FromDir reads every profile file under dir into a Thicket, streaming:
// profiles decode on a bounded worker pool (caliper.WalkDir) and feed the
// frame builder one at a time in sorted-path order, straight from their
// flat decoded form, so neither the []Profile set nor any profile's
// metric maps are ever built. The builder reserves rows at the first
// profile from that file's share of the directory's bytes.
func FromDir(dir string) (*Thicket, error) {
	tk, _, err := fromDir(dir, false)
	return tk, err
}

// FromDirLenient reads like FromDir but skips profiles that fail to
// decode instead of failing the whole directory, returning the skipped
// files alongside the Thicket. This is the ingestion mode for a
// directory a crashed or fault-injected campaign may have left with
// partial files: analysis proceeds on what is readable, and the caller
// reports what was not. It still fails when nothing at all is readable.
func FromDirLenient(dir string) (*Thicket, []caliper.FileError, error) {
	return fromDir(dir, true)
}

// fromDir is the body of FromDir (strict) and FromDirLenient.
func fromDir(dir string, lenient bool) (*Thicket, []caliper.FileError, error) {
	start := time.Now()
	b := frame.NewBuilder()
	n := 0
	add := func(_ string, r *caliper.Rows) error {
		if n == 0 {
			// An eighth over the estimate covers the spread of bytes per
			// row between one campaign's CPU and GPU profiles (about 9%),
			// so the columns never regrow on such a directory.
			b.Reserve(r.DirRows() * 9 / 8)
		}
		b.StartProfile(r.Metadata)
		for i := 0; i < r.Len(); i++ {
			b.AddCells(r.Record(i))
		}
		n++
		return nil
	}
	var ferrs []caliper.FileError
	var err error
	if lenient {
		ferrs, err = caliper.WalkDirLenient(dir, add)
	} else {
		err = caliper.WalkDir(dir, add)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("thicket: %w", err)
	}
	if n == 0 {
		if len(ferrs) > 0 {
			return nil, ferrs, fmt.Errorf("thicket: no readable profiles in %s (%d unreadable)", dir, len(ferrs))
		}
		return nil, nil, fmt.Errorf("thicket: no profiles found in %s", dir)
	}
	defer observeCompose(start, n)
	return fromFrame(b.Finish()), ferrs, nil
}

// ingest appends one profile to the builder.
func ingest(b *frame.Builder, p *caliper.Profile) {
	b.StartProfile(p.Metadata)
	for i := range p.Records {
		b.AddRow(p.Records[i].Path, p.Records[i].Metrics)
	}
}

// Composer streams profiles into a live composition: Add appends,
// Snapshot seals the current state into a queryable view without
// re-ingesting what is already composed (an O(k)-ingest, O(n)-seal cut
// over shared column storage — see frame.Builder.Snapshot). Earlier
// snapshots stay valid and readable while ingest continues. Add and
// Snapshot follow the Builder contract: one goroutine, or external
// synchronization.
type Composer struct {
	b *frame.Builder
}

// NewComposer returns an empty streaming composition.
func NewComposer() *Composer { return &Composer{b: frame.NewBuilder()} }

// Add appends one profile to the composition.
func (c *Composer) Add(p *caliper.Profile) {
	ingest(c.b, p)
	profilesComposed.Inc()
}

// Snapshot seals the profiles added so far into a Thicket. The ingest
// sequence determines the underlying frame's content hash, so a
// snapshot equals FromProfiles of the same profiles and re-hits the
// engine's cached query results of any equally composed thicket;
// appending invalidates nothing but reachability — stale entries simply
// age out of the LRU.
func (c *Composer) Snapshot() *Thicket {
	defer observeCompose(time.Now(), 0)
	return fromFrame(c.b.Snapshot())
}

// NumProfiles returns the number of composed runs.
func (t *Thicket) NumProfiles() int { return t.f.NumProfiles() }

// NumRows returns the DataFrame row count of this view.
func (t *Thicket) NumRows() int {
	if t.sel == nil {
		return t.f.NumRows()
	}
	return len(t.sel)
}

// eachRow calls fn for every selected row in ascending order.
func (t *Thicket) eachRow(fn func(r int32)) {
	if t.sel == nil {
		for r := int32(0); r < int32(t.f.NumRows()); r++ {
			fn(r)
		}
		return
	}
	for _, r := range t.sel {
		fn(r)
	}
}

// selected reports whether frame row r is part of this view.
func (t *Thicket) selected(r int32) bool {
	if t.sel == nil {
		return true
	}
	i := sort.Search(len(t.sel), func(i int) bool { return t.sel[i] >= r })
	return i < len(t.sel) && t.sel[i] == r
}

// MetadataColumn returns the value of key for every profile, as strings,
// with frame.MissingKey for a profile that lacks the key: the spelling
// GroupBy and frame.MetaEq match on.
func (t *Thicket) MetadataColumn(key string) []string {
	out := make([]string, t.f.NumProfiles())
	for i := range out {
		out[i] = t.f.MetaString(int32(i), key)
	}
	return out
}

// Nodes returns the distinct node names in this view, sorted.
func (t *Thicket) Nodes() []string {
	dict := t.f.NodeDict()
	if t.sel == nil {
		out := append([]string(nil), dict.Names()...)
		sort.Strings(out)
		return out
	}
	seen := make([]bool, dict.Len())
	nodeIDs := t.f.NodeIDs()
	for _, r := range t.sel {
		if id := nodeIDs[r]; id >= 0 {
			seen[id] = true
		}
	}
	var out []string
	for id, ok := range seen {
		if ok {
			out = append(out, dict.Name(int32(id)))
		}
	}
	sort.Strings(out)
	return out
}

// Where returns the sub-view of rows satisfying every predicate (each a
// MetaEq, NodeEq, MetricCmp or HasMetric leaf, optionally under Not),
// executed by the engine with predicate pushdown: metadata conjuncts
// skip whole profile row ranges, node conjuncts resolve once per
// distinct node, and metric conjuncts run vectorized over the column
// validity bitmaps. Selections are shared with the engine's cache —
// read-only, like every view.
func (t *Thicket) Where(ps ...frame.Pred) *Thicket {
	if len(ps) == 0 {
		return t
	}
	return &Thicket{f: t.f, sel: t.Query().Where(ps...).Rows()}
}

// GroupBy partitions the view by the string value of a metadata key,
// returning sub-views keyed by that value. Profiles lacking the key are
// grouped under frame.MissingKey. The engine resolves the group key once
// per profile and emits per-group selections in one scan; the selections
// are shared with the engine's cache — read-only, like every view.
func (t *Thicket) GroupBy(key string) map[string]*Thicket {
	groups := t.Query().GroupBy(key).Groups()
	out := make(map[string]*Thicket, len(groups))
	for k, sel := range groups {
		out[k] = &Thicket{f: t.f, sel: sel}
	}
	return out
}

// NodeVector collects one metric across a list of metric names for a node
// from the first row that carries the node with every metric present —
// the per-kernel feature tuple used for clustering. It walks the node's
// row postings, not the full DataFrame.
func (t *Thicket) NodeVector(node string, metrics []string) ([]float64, bool) {
	nid, ok := t.f.NodeDict().Lookup(node)
	if !ok {
		return nil, false
	}
	cols := make([]*frame.Column, len(metrics))
	for i, m := range metrics {
		if cols[i] = t.f.Column(m); cols[i] == nil {
			return nil, false
		}
	}
	try := func(r int32) ([]float64, bool) {
		out := make([]float64, len(metrics))
		for i, c := range cols {
			v, ok := c.Value(r)
			if !ok {
				return nil, false
			}
			out[i] = v
		}
		return out, true
	}
	if t.sel == nil {
		for _, r := range t.f.NodeRows(nid) {
			if out, ok := try(r); ok {
				return out, true
			}
		}
		return nil, false
	}
	nodeIDs := t.f.NodeIDs()
	for _, r := range t.sel {
		if nodeIDs[r] != nid {
			continue
		}
		if out, ok := try(r); ok {
			return out, true
		}
	}
	return nil, false
}
