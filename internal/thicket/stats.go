package thicket

import (
	"rajaperf/internal/frame"
	"rajaperf/internal/raja"
)

// Stats summarizes one metric for one node across profiles — a row of the
// Thicket aggregated-statistics component. It is the frame engine's row
// type: aggregations run in the vectorized query layer and cached result
// slices are returned as-is, without conversion.
type Stats = frame.Stats

// eng is the engine every Thicket aggregation runs on: the process-wide
// frame engine, with its per-bucket summary fan-out wired to the suite's
// own executor pool — the suite analyzing itself with its own executor.
var eng = frame.DefaultEngine()

func init() {
	eng.SetParallel(func(n int, body func(lo, hi int)) {
		raja.Default().StaticChunks(0, n, func(_, lo, hi int) { body(lo, hi) })
	})
}

// Query starts a lazy engine query over this view. Composing Where /
// GroupBy clauses and executing Rows / Groups / Stats on it is what the
// GroupStats wrapper below does; results are shared with the engine's
// LRU and must be treated as read-only.
func (t *Thicket) Query() *frame.Query { return eng.Query(t.f, t.sel) }

// AggregateStats computes per-node summary statistics of a metric across
// all composed profiles in this view, through the engine's fused
// aggregation: one counting pass and one fill pass over the metric
// column's validity words — no per-node append growth — with the
// per-node summaries fanned out across the raja pool above the engine's
// parallel threshold. Results are deterministic regardless of lane
// count, cached by frame content hash, and shared: read-only.
func (t *Thicket) AggregateStats(metric string) []Stats {
	if t.f.Column(metric) == nil {
		return nil
	}
	out := t.Query().Stats(metric)[""]
	if out == nil {
		// An empty view aggregates to zero rows, not to "no such metric".
		out = []Stats{}
	}
	return out
}

// GroupStats partitions the view by a metadata key and computes the
// per-node summary statistics of a metric within each group — the
// groupby-then-aggregate composition the Thicket paper applies to
// machine and tuning columns, extended here to the executor metadata
// (executor.schedule, executor.services) and the imbalance metrics the
// measurement services attach (imbalance_pct, lane_busy_max_sec, ...).
// Group keys are the stringified metadata values; profiles lacking the
// key aggregate under frame.MissingKey. The engine fuses grouping and
// aggregation into two passes over the metric column; no per-group
// selections are materialized. Results are cached and shared: read-only.
func (t *Thicket) GroupStats(key, metric string) map[string][]Stats {
	return t.Query().GroupBy(key).Stats(metric)
}

// SpeedupTable computes, per node, baselineMetric/otherMetric between two
// Thickets (e.g. modeled time on SPR-DDR vs another machine) — the
// derivation behind the paper's Fig 7-9 speedup columns. Each side
// resolves through the engine to its last positive metric value per node
// (last in row order — the resolution the legacy row scan converged to);
// nodes missing a positive value on either side are skipped. Node names
// bridge the two frames' dictionaries.
func SpeedupTable(baseline, other *Thicket, metric string) map[string]float64 {
	out := map[string]float64{}
	if baseline.f.Column(metric) == nil || other.f.Column(metric) == nil {
		return out
	}
	baseLast := baseline.Query().LastPositivePerNode(metric)
	otherLast := other.Query().LastPositivePerNode(metric)
	bdict := baseline.f.NodeDict()
	odict := other.f.NodeDict()
	for id, v := range otherLast {
		if v <= 0 {
			continue
		}
		name := odict.Name(int32(id))
		bid, ok := bdict.Lookup(name)
		if !ok || baseLast[bid] <= 0 {
			continue
		}
		out[name] = baseLast[bid] / v
	}
	return out
}
