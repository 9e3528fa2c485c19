package frame

// The vectorized query layer: lazy queries (Where/GroupBy) over a
// Frame, executed by an Engine with predicate pushdown and batched
// kernels.
//
// Execution model. A query is a conjunction of leaf predicates (each
// possibly negated), classified by scope at plan time. Profile-scope
// conjuncts (MetaEq) are decided once per profile and prune whole
// contiguous row ranges before any row is touched — the predicate
// pushdown into the columnar scan. Node-scope conjuncts (NodeEq) are
// decided once per distinct node id into a dense keep table. Metric
// conjuncts (MetricCmp, HasMetric) are evaluated by word-at-a-time
// kernels over the column validity bitmaps: the scan walks 64 rows per
// word, skips invalid cells in bulk via bits.TrailingZeros64, and
// indexes hoisted column slices so the compiler can eliminate bounds
// checks.
//
// Aggregation is fused: grouped per-node statistics gather values in
// one counting pass and one fill pass over the metric column — no
// per-group selection is materialized and no per-row (value, ok) branch
// runs in the hot loop. Over the full frame with at most profile-scope
// conjuncts the passes walk the kept profiles' row ranges word by word;
// any other query (a base selection, as every Where-derived view has,
// or a node or metric conjunct) first runs the filter in one
// closure-free pass into a row selection — the base itself when there
// are no conjuncts — and both passes loop over it. Results are
// byte-identical to the naive row-at-a-time reference evaluator in
// querytest, which CI enforces differentially.
//
// Every query result is memoized in the engine's LRU keyed by frame
// content hash, base selection and the query's canonical spelling;
// cached values are shared — callers must treat them as read-only.

import (
	"math"
	"math/bits"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// Stats summarizes one metric for one node within one group — a row of
// the aggregated-statistics component.
type Stats struct {
	Node   string
	Metric string
	Count  int
	Mean   float64
	Median float64
	Std    float64
	Min    float64
	Max    float64
}

// GroupStats maps a group key to its per-node statistics rows, sorted
// by node name. An ungrouped aggregation uses the single key "".
type GroupStats map[string][]Stats

// statsParallelThreshold is the gathered-value count above which the
// per-bucket summaries fan out over the engine's Parallel hook.
const statsParallelThreshold = 4096

// Engine executes queries: it owns the result cache and an optional
// parallelism hook. The zero Engine is unusable; use NewEngine. Engines
// are safe for concurrent use.
type Engine struct {
	cache    *Cache
	parallel func(n int, fn func(lo, hi int)) // nil = serial
}

// NewEngine returns an engine with an LRU of cacheEntries results
// (<= 0 disables caching).
func NewEngine(cacheEntries int) *Engine {
	return &Engine{cache: NewCache(cacheEntries)}
}

// SetParallel installs the fan-out hook used for bulk per-bucket
// summaries: fn(n, body) must call body over a partition of [0, n).
// Install before issuing queries; it is not synchronized with them.
func (e *Engine) SetParallel(fn func(n int, body func(lo, hi int))) { e.parallel = fn }

// CacheStats snapshots the engine cache counters.
func (e *Engine) CacheStats() CacheStats { return e.cache.Stats() }

// ClearCache drops every cached query result.
func (e *Engine) ClearCache() { e.cache.Clear() }

// defaultEngine serves frame users that do not manage their own engine.
var defaultEngine = NewEngine(256)

// DefaultEngine returns the process-wide engine.
func DefaultEngine() *Engine { return defaultEngine }

// Query is a lazy query: building one performs no work beyond
// allocating the description. Builder methods clone, so a partially
// built query can fork into several executions.
type Query struct {
	e        *Engine
	f        *Frame
	base     []int32 // nil = whole frame
	conj     []Pred  // top-level conjunction
	groupKey string
	grouped  bool
}

// Query starts a lazy query over f (base nil = every row; otherwise an
// ascending row selection the query composes with).
func (e *Engine) Query(f *Frame, base []int32) *Query {
	return &Query{e: e, f: f, base: base}
}

func (q *Query) clone() *Query {
	cp := *q
	cp.conj = q.conj[:len(q.conj):len(q.conj)]
	return &cp
}

// Where adds predicate conjuncts.
func (q *Query) Where(ps ...Pred) *Query {
	cp := q.clone()
	cp.conj = append(cp.conj, ps...)
	return cp
}

// GroupBy groups the result by the stringified metadata value of key.
func (q *Query) GroupBy(key string) *Query {
	cp := q.clone()
	cp.groupKey, cp.grouped = key, true
	return cp
}

// plan is a compiled query: predicates pushed to their scan level.
type plan struct {
	keepProf   []bool // nil = keep all
	keepNode   []bool // per node id; nil = keep all
	keepNoNode bool   // whether rows without a node pass the node preds
	vec        []Pred // metric conjuncts (vectorized kernels)
	key        string // canonical spelling
}

// compile classifies the conjuncts and evaluates the profile- and
// node-scope ones into dense keep tables.
func (q *Query) compile() *plan {
	f := q.f
	pl := &plan{keepNoNode: true}
	var sb strings.Builder
	for _, p := range q.conj {
		p.cacheKey(&sb)
		sb.WriteByte(';')
		switch p.scope() {
		case scopeProfile:
			if pl.keepProf == nil {
				pl.keepProf = make([]bool, f.NumProfiles())
				for i := range pl.keepProf {
					pl.keepProf[i] = true
				}
			}
			for prof := range pl.keepProf {
				if pl.keepProf[prof] {
					pl.keepProf[prof] = evalProfile(p, f, int32(prof))
				}
			}
		case scopeNode:
			if pl.keepNode == nil {
				pl.keepNode = make([]bool, f.nodes.Len())
				for i := range pl.keepNode {
					pl.keepNode[i] = true
				}
			}
			for id := range pl.keepNode {
				if pl.keepNode[id] {
					pl.keepNode[id] = evalNode(p, f, int32(id))
				}
			}
			pl.keepNoNode = pl.keepNoNode && evalNode(p, f, -1)
		default:
			pl.vec = append(pl.vec, p)
		}
	}
	pl.key = sb.String()
	return pl
}

// rowMask evaluates the vectorized conjuncts into an absolute
// word-indexed bitmap over the whole frame (nil when there are none).
// Metric predicates do not depend on profile or node, so one
// full-column kernel pass serves every kept range.
func (pl *plan) rowMask(f *Frame) []uint64 {
	if len(pl.vec) == 0 {
		return nil
	}
	words := (f.NumRows() + 63) / 64
	mask := make([]uint64, words)
	tmp := make([]uint64, words)
	evalVec(pl.vec[0], f, mask)
	for _, p := range pl.vec[1:] {
		evalVec(p, f, tmp)
		for w := range mask {
			mask[w] &= tmp[w]
		}
	}
	return mask
}

// evalVec computes a metric predicate's truth bitmap over every frame
// row into dst (len = ceil(rows/64)).
func evalVec(p Pred, f *Frame, dst []uint64) {
	switch p := p.(type) {
	case *metricCmpPred:
		cmpKernel(f, p, dst)
	case *hasMetricPred:
		col := f.Column(p.metric)
		if col == nil {
			zero(dst)
			return
		}
		copy(dst, col.validWords())
	case *notPred:
		evalVec(p.p, f, dst)
		for w := range dst {
			dst[w] = ^dst[w]
		}
		trimTail(dst, f.NumRows())
	default:
		panic("frame: evalVec on non-metric predicate")
	}
}

// cmpKernel sets dst bits for rows where the metric is present and
// compares true — the batched filter kernel. It walks validity words,
// visits only set bits, and indexes a hoisted data slice.
func cmpKernel(f *Frame, p *metricCmpPred, dst []uint64) {
	zero(dst)
	col := f.Column(p.metric)
	if col == nil {
		return
	}
	data := col.Data
	valid := col.validWords()
	op, x := p.op, p.x
	for w, word := range valid {
		if word == 0 {
			continue
		}
		base := w << 6
		var out uint64
		// chunk is at most 64 cells; indexing it with the bit offset
		// needs no per-access bounds check once the compiler sees the
		// slice bounds.
		hi := base + 64
		if hi > len(data) {
			hi = len(data)
		}
		chunk := data[base:hi]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			if b < len(chunk) && op.eval(chunk[b], x) {
				out |= 1 << uint(b)
			}
		}
		dst[w] = out
	}
}

func zero(ws []uint64) {
	for i := range ws {
		ws[i] = 0
	}
}

// trimTail clears bits at positions >= n.
func trimTail(ws []uint64, n int) {
	if n&63 != 0 && n>>6 < len(ws) {
		ws[n>>6] &= (1 << uint(n&63)) - 1
	}
	for w := (n + 63) / 64; w < len(ws); w++ {
		ws[w] = 0
	}
}

// selection runs the pushed-down filter in one pass and returns the
// surviving rows in ascending order: kept profiles' row ranges (or the
// base rows of kept profiles) that pass the node keep table and the
// vectorized mask. A query without conjuncts selects its base itself,
// which callers share and never write into.
func (q *Query) selection(pl *plan) []int32 {
	if len(q.conj) == 0 && q.base != nil {
		return q.base
	}
	f := q.f
	mask := pl.rowMask(f)
	nodeIDs := f.nodeIDs
	var sel []int32
	if q.base == nil {
		n := int32(0)
		for prof := int32(0); prof < int32(f.NumProfiles()); prof++ {
			if pl.keepProf == nil || pl.keepProf[prof] {
				lo, hi := f.ProfileRange(prof)
				n += hi - lo
			}
		}
		sel = make([]int32, 0, n)
		// Without node or metric conjuncts every kept row survives:
		// compile clears keepNoNode only beside a keepNode table.
		everyRow := pl.keepNode == nil && mask == nil
		for prof := int32(0); prof < int32(f.NumProfiles()); prof++ {
			if pl.keepProf != nil && !pl.keepProf[prof] {
				continue // pushdown: the whole contiguous range is skipped
			}
			lo, hi := f.ProfileRange(prof)
			for r := lo; r < hi; r++ {
				if everyRow || pl.keeps(mask, nodeIDs[r], r) {
					sel = append(sel, r)
				}
			}
		}
	} else {
		sel = make([]int32, 0, len(q.base))
		profIDs := f.profIDs
		for _, r := range q.base {
			if (pl.keepProf == nil || pl.keepProf[profIDs[r]]) && pl.keeps(mask, nodeIDs[r], r) {
				sel = append(sel, r)
			}
		}
	}
	return sel
}

// keeps reports whether row r, carrying node id, passes the node-scope
// keep table and the vectorized conjuncts' mask (nil = no such
// conjuncts).
func (pl *plan) keeps(mask []uint64, id, r int32) bool {
	if id >= 0 {
		if pl.keepNode != nil && !pl.keepNode[id] {
			return false
		}
	} else if !pl.keepNoNode {
		return false
	}
	return mask == nil || mask[r>>6]&(1<<uint(r&63)) != 0
}

// memo answers one execution of kind from the engine cache, or computes
// and caches it. The key is built once per execution: its selection
// hash walks the whole base.
func memo[T any](q *Query, pl *plan, kind string, compute func() T) T {
	k := cacheKey{frame: q.f.Hash(), sel: selHash(q.base), query: kind + "|" + pl.key}
	if v, ok := q.e.cache.get(k); ok {
		return v.(T)
	}
	v := compute()
	q.e.cache.put(k, v)
	return v
}

// Rows executes the filter and returns the surviving ascending row
// selection (shared when cached — treat as read-only). A query with no
// predicates returns its base: nil over the full frame, meaning every
// row.
func (q *Query) Rows() []int32 {
	if len(q.conj) == 0 {
		return q.base
	}
	pl := q.compile()
	return memo(q, pl, "rows", func() []int32 { return q.selection(pl) })
}

// groupTab is a resolved GroupBy key over every profile of one frame.
type groupTab struct {
	profGroup []int32
	keys      []string
}

// groupTable resolves, per profile, the group id of this query's
// GroupBy key; keys maps group id to the group's string key. An
// ungrouped query puts every profile in group 0 with key "". The table
// spans all profiles regardless of predicates, so it is memoized per
// (frame, key) — a metric sweep over one grouping resolves it once.
func (q *Query) groupTable() (profGroup []int32, keys []string) {
	f := q.f
	if !q.grouped {
		return make([]int32, f.NumProfiles()), []string{""}
	}
	mk := cacheKey{frame: f.Hash(), query: "gt|" + q.groupKey}
	if v, ok := q.e.cache.sideGet(mk); ok {
		gt := v.(*groupTab)
		return gt.profGroup, gt.keys
	}
	profGroup = make([]int32, f.NumProfiles())
	ids := map[string]int32{}
	for p := range profGroup {
		k := f.MetaString(int32(p), q.groupKey)
		id, ok := ids[k]
		if !ok {
			id = int32(len(keys))
			ids[k] = id
			keys = append(keys, k)
		}
		profGroup[p] = id
	}
	q.e.cache.sidePut(mk, &groupTab{profGroup: profGroup, keys: keys})
	return profGroup, keys
}

// Groups executes the filter and partitions the surviving rows by the
// GroupBy key (key "" when ungrouped). Groups a profile contributes no
// surviving rows to are absent. Cached selections are shared —
// read-only.
func (q *Query) Groups() map[string][]int32 {
	pl := q.compile()
	return memo(q, pl, "groups|"+q.groupKeySpelling(), func() map[string][]int32 {
		profGroup, keys := q.groupTable()
		profIDs := q.f.profIDs
		sels := make([][]int32, len(keys))
		for _, r := range q.selection(pl) {
			g := profGroup[profIDs[r]]
			sels[g] = append(sels[g], r)
		}
		out := map[string][]int32{}
		for g, sel := range sels {
			if sel != nil {
				out[keys[g]] = sel
			}
		}
		return out
	})
}

func (q *Query) groupKeySpelling() string {
	if !q.grouped {
		return "<ungrouped>"
	}
	return "key=" + q.groupKey
}

// Stats executes the fused grouped aggregation of one metric: per
// group and node, count/mean/median/std/min/max of the metric across
// the surviving rows. Group keys with surviving rows but no valid
// metric cells map to an empty slice; a metric absent from the schema
// maps every group to nil — matching the row-at-a-time semantics the
// differential oracle pins. Cached results are shared — read-only.
func (q *Query) Stats(metric string) GroupStats {
	pl := q.compile()
	return memo(q, pl, "stats|"+q.groupKeySpelling()+"|metric="+metric,
		func() GroupStats { return q.statsUncached(pl, metric) })
}

func (q *Query) statsUncached(pl *plan, metric string) GroupStats {
	f := q.f
	col := f.Column(metric)
	profGroup, keys := q.groupTable()
	nNodes := f.nodes.Len()
	nGroups := len(keys)

	// groupSeen tracks which groups have surviving rows at all — those
	// appear in the result even with zero valid metric cells.
	groupSeen := make([]bool, nGroups)

	profIDs := f.profIDs
	if col == nil {
		for _, r := range q.selection(pl) {
			groupSeen[profGroup[profIDs[r]]] = true
		}
		out := make(GroupStats, nGroups)
		for g, seen := range groupSeen {
			if seen {
				out[keys[g]] = nil
			}
		}
		return out
	}

	// Fast fused path: no row/node predicates and a full-frame base
	// means the scan is exactly the kept profiles' contiguous ranges —
	// gather counts and values word-at-a-time off the validity bitmap.
	fast := q.base == nil && len(pl.vec) == 0 && pl.keepNode == nil

	sc := statsScratchPool.Get().(*statsScratch)
	defer statsScratchPool.Put(sc)
	sc.counts = growI32(sc.counts, nGroups*nNodes)
	counts := sc.counts
	data := col.Data
	valid := col.validWords()
	nodeIDs := f.nodeIDs

	slots := nGroups * nNodes
	// rangePop popcounts the valid cells in [lo, hi) — a handful of word
	// ops that decide whether a range is fully dense, in which case the
	// count and fill passes drop the bitmap machinery entirely and walk
	// the rows linearly.
	rangePop := func(lo, hi int32) int {
		pc := 0
		for w := int(lo >> 6); w <= int(hi-1)>>6; w++ {
			pc += bits.OnesCount64(maskedWord(valid[w], w, lo, hi))
		}
		return pc
	}
	countRange := func(dst []int32, g int32, lo, hi int32, pc int) {
		base := int(g) * nNodes
		if pc == int(hi-lo) {
			for _, id := range nodeIDs[lo:hi] {
				if id >= 0 {
					dst[base+int(id)]++
				}
			}
			return
		}
		for w := int(lo >> 6); w <= int(hi-1)>>6; w++ {
			word := maskedWord(valid[w], w, lo, hi)
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				if id := nodeIDs[w<<6+b]; id >= 0 {
					dst[base+int(id)]++
				}
			}
		}
	}
	// subRange is countRange's complement: it walks the *invalid* cells of
	// [lo, hi) and decrements — used when counting starts from the
	// memoized all-cells-valid table, where only the holes need touching.
	subRange := func(dst []int32, g int32, lo, hi int32) {
		base := int(g) * nNodes
		for w := int(lo >> 6); w <= int(hi-1)>>6; w++ {
			word := maskedWord(^valid[w], w, lo, hi)
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				if id := nodeIDs[w<<6+b]; id >= 0 {
					dst[base+int(id)]--
				}
			}
		}
	}
	fillRange := func(g int32, lo, hi int32, next []int32, backing []float64, dense bool) {
		base := int(g) * nNodes
		if dense {
			ids := nodeIDs[lo:hi]
			vals := data[lo:hi]
			for i, id := range ids {
				if id >= 0 {
					slot := base + int(id)
					backing[next[slot]] = vals[i]
					next[slot]++
				}
			}
			return
		}
		for w := int(lo >> 6); w <= int(hi-1)>>6; w++ {
			word := maskedWord(valid[w], w, lo, hi)
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				r := w<<6 + b
				if id := nodeIDs[r]; id >= 0 {
					slot := base + int(id)
					backing[next[slot]] = data[r]
					next[slot]++
				}
			}
		}
	}

	// The fast path runs the count and fill passes over profile chunks —
	// in parallel when the engine has a fan-out hook and the frame is
	// large enough. Each worker owns a private counter/cursor region, so
	// there is no sharing; chunks are ascending profile ranges and each
	// bucket's worker regions are laid out in chunk order, so the gather
	// lands in ascending row order no matter how workers are scheduled.
	var chunks [][2]int32
	if fast {
		for prof := int32(0); prof < int32(f.NumProfiles()); prof++ {
			if pl.keepProf != nil && !pl.keepProf[prof] {
				continue
			}
			lo, hi := f.ProfileRange(prof)
			if lo == hi {
				continue
			}
			groupSeen[profGroup[prof]] = true
		}
		if maxW := runtime.GOMAXPROCS(0); q.e.parallel != nil && maxW > 1 &&
			f.NumRows() >= statsParallelThreshold {
			chunks = profileChunks(f, min(8, maxW))
		} else {
			chunks = [][2]int32{{0, int32(f.NumProfiles())}}
		}
	}
	W := len(chunks)
	runChunks := func(body func(w int)) {
		if W == 1 {
			body(0)
			return
		}
		q.e.parallel(W, func(lo, hi int) {
			for w := lo; w < hi; w++ {
				body(w)
			}
		})
	}
	chunkRanges := func(w int, fn func(prof, g, lo, hi int32)) {
		for prof := chunks[w][0]; prof < chunks[w][1]; prof++ {
			if pl.keepProf != nil && !pl.keepProf[prof] {
				continue
			}
			lo, hi := f.ProfileRange(prof)
			if lo == hi {
				continue
			}
			fn(prof, profGroup[prof], lo, hi)
		}
	}

	var sel []int32 // the view path's surviving rows

	// wdense, when available, is the memoized per-worker count table under
	// the assumption that every cell of every row is valid. It depends
	// only on (frame, grouping, chunking) — not the metric — so a metric
	// sweep over one GroupBy key pays the node walk once and each metric's
	// count pass touches only its invalid cells.
	var wdense []int32
	if fast {
		sc.wcounts = growI32(sc.wcounts, W*slots)
		sc.pops = growI32(sc.pops, f.NumProfiles())
		if pl.keepProf == nil && q.e.cache.enabled() {
			mk := cacheKey{frame: f.Hash(),
				query: "dc|" + q.groupKeySpelling() + "|" + strconv.Itoa(W)}
			if v, ok := q.e.cache.sideGet(mk); ok {
				wdense = v.([]int32)
			} else {
				wdense = make([]int32, W*slots)
				runChunks(func(w int) {
					wd := wdense[w*slots : (w+1)*slots]
					chunkRanges(w, func(_, g, lo, hi int32) {
						base := int(g) * nNodes
						for _, id := range nodeIDs[lo:hi] {
							if id >= 0 {
								wd[base+int(id)]++
							}
						}
					})
				})
				q.e.cache.sidePut(mk, wdense)
			}
		}
		runChunks(func(w int) {
			dst := sc.wcounts[w*slots : (w+1)*slots]
			chunkRanges(w, func(prof, g, lo, hi int32) {
				pc := rangePop(lo, hi)
				sc.pops[prof] = int32(pc)
				if wdense != nil {
					if pc != int(hi-lo) {
						subRange(dst, g, lo, hi)
					}
				} else {
					countRange(dst, g, lo, hi, pc)
				}
			})
		})
		for w := 0; w < W; w++ {
			base := w * slots
			if wdense != nil {
				for s := 0; s < slots; s++ {
					counts[s] += wdense[base+s] + sc.wcounts[base+s]
				}
			} else {
				for s := 0; s < slots; s++ {
					counts[s] += sc.wcounts[base+s]
				}
			}
		}
	} else {
		// The view path: one selection pass, then count and fill passes
		// over the surviving rows, reading the validity bit inline.
		sel = q.selection(pl)
		for _, r := range sel {
			g := profGroup[profIDs[r]]
			groupSeen[g] = true
			if valid[r>>6]&(1<<uint(r&63)) != 0 {
				if id := nodeIDs[r]; id >= 0 {
					counts[int(g)*nNodes+int(id)]++
				}
			}
		}
	}

	// Exact-size bucket allocation from the counting pass.
	sc.offsets = growI32(sc.offsets, slots+1)
	offsets := sc.offsets
	total := int32(0)
	for i, c := range counts {
		offsets[i] = total
		total += c
	}
	offsets[slots] = total
	sc.backing = growF64(sc.backing, int(total))
	backing := sc.backing

	if fast {
		// Per-worker fill cursors: bucket s splits into W consecutive
		// regions, one per chunk, in chunk (= row) order. A worker's
		// region size is its actual contribution — dense base plus the
		// (negative) hole deltas when the memoized table was in play.
		sc.next = growI32(sc.next, W*slots)
		for s := 0; s < slots; s++ {
			run := offsets[s]
			for w := 0; w < W; w++ {
				sc.next[w*slots+s] = run
				c := sc.wcounts[w*slots+s]
				if wdense != nil {
					c += wdense[w*slots+s]
				}
				run += c
			}
		}
		runChunks(func(w int) {
			next := sc.next[w*slots : (w+1)*slots]
			chunkRanges(w, func(prof, g, lo, hi int32) {
				fillRange(g, lo, hi, next, backing, sc.pops[prof] == hi-lo)
			})
		})
	} else {
		sc.next = growI32(sc.next, slots)
		next := sc.next
		copy(next, offsets)
		for _, r := range sel {
			if valid[r>>6]&(1<<uint(r&63)) != 0 {
				if id := nodeIDs[r]; id >= 0 {
					slot := int(profGroup[profIDs[r]])*nNodes + int(id)
					backing[next[slot]] = data[r]
					next[slot]++
				}
			}
		}
	}

	// Emit per group: walk the frame's seal-time name-sorted node order
	// and keep ids with values — no per-group sort, no id scratch.
	type bucket struct {
		out  *Stats
		vals []float64
	}
	var buckets []bucket
	out := make(GroupStats, nGroups)
	dict := f.nodes
	order := f.nodeOrder
	for g := 0; g < nGroups; g++ {
		if !groupSeen[g] {
			continue
		}
		base := g * nNodes
		n := 0
		for _, id := range order {
			if counts[base+int(id)] > 0 {
				n++
			}
		}
		rows := make([]Stats, 0, n)
		for _, id := range order {
			slot := base + int(id)
			if counts[slot] == 0 {
				continue
			}
			rows = append(rows, Stats{Node: dict.Name(id), Metric: metric})
			buckets = append(buckets, bucket{
				out:  &rows[len(rows)-1],
				vals: backing[offsets[slot]:offsets[slot+1]],
			})
		}
		out[keys[g]] = rows
	}

	summarizeOne := func(i int) {
		b := buckets[i]
		*b.out = summarizeInto(b.out.Node, b.out.Metric, b.vals)
	}
	if q.e.parallel != nil && int(total) >= statsParallelThreshold && len(buckets) > 1 {
		q.e.parallel(len(buckets), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				summarizeOne(i)
			}
		})
	} else {
		for i := range buckets {
			summarizeOne(i)
		}
	}
	return out
}

// statsScratch is the reusable working set of one fused aggregation:
// the count/offset/cursor tables and the gathered-value backing. None
// of it escapes into results (Stats rows hold only scalars), so the
// buffers recycle through a pool — the gather is the dominant
// allocation of a grouped-aggregation sweep, and pooling it keeps the
// sweep off the garbage collector's back.
type statsScratch struct {
	counts  []int32
	wcounts []int32 // per-worker count regions for the parallel fast path
	pops    []int32 // per-profile valid-cell popcount, count pass -> fill pass
	offsets []int32
	next    []int32
	backing []float64
}

// profileChunks splits the frame's profiles into at most maxChunks
// contiguous, row-balanced ranges [lo, hi) for the parallel count and
// fill passes. Chunks are in ascending profile (= row) order, which is
// what keeps the parallel gather deterministic.
func profileChunks(f *Frame, maxChunks int) [][2]int32 {
	nProf := int32(f.NumProfiles())
	if maxChunks < 1 {
		maxChunks = 1
	}
	if int(nProf) < maxChunks {
		maxChunks = int(nProf)
	}
	chunks := make([][2]int32, 0, maxChunks)
	target := (f.NumRows() + maxChunks - 1) / maxChunks
	lo := int32(0)
	for lo < nProf {
		hi := lo
		rows := 0
		for hi < nProf && (rows == 0 || rows < target) {
			plo, phi := f.ProfileRange(hi)
			rows += int(phi - plo)
			hi++
		}
		chunks = append(chunks, [2]int32{lo, hi})
		lo = hi
	}
	if len(chunks) == 0 {
		chunks = [][2]int32{{0, 0}}
	}
	return chunks
}

var statsScratchPool = sync.Pool{New: func() any { return &statsScratch{} }}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// maskedWord clips validity word w to bit positions within [lo, hi).
func maskedWord(word uint64, w int, lo, hi int32) uint64 {
	if w == int(lo>>6) {
		word &= ^uint64(0) << uint(lo&63)
	}
	if hi&63 != 0 && w == int(hi>>6) {
		word &= (1 << uint(hi&63)) - 1
	}
	return word
}

// LastPositivePerNode returns, per node id, the last (in row order)
// valid positive value of metric across the query's surviving rows —
// the per-node resolution SpeedupTable is built from (0 = no such
// value). Cached results are shared — read-only.
func (q *Query) LastPositivePerNode(metric string) []float64 {
	pl := q.compile()
	return memo(q, pl, "lastpos|metric="+metric, func() []float64 { return q.lastPositive(pl, metric) })
}

func (q *Query) lastPositive(pl *plan, metric string) []float64 {
	f := q.f
	out := make([]float64, f.nodes.Len())
	col := f.Column(metric)
	if col == nil {
		return out
	}
	data := col.Data
	valid := col.validWords()
	nodeIDs := f.nodeIDs
	fast := q.base == nil && len(pl.vec) == 0 && pl.keepNode == nil
	if fast {
		for prof := int32(0); prof < int32(f.NumProfiles()); prof++ {
			if pl.keepProf != nil && !pl.keepProf[prof] {
				continue
			}
			lo, hi := f.ProfileRange(prof)
			if lo == hi {
				continue
			}
			for w := int(lo >> 6); w <= int(hi-1)>>6; w++ {
				word := maskedWord(valid[w], w, lo, hi)
				for word != 0 {
					b := bits.TrailingZeros64(word)
					word &= word - 1
					r := w<<6 + b
					if id := nodeIDs[r]; id >= 0 && data[r] > 0 {
						out[id] = data[r]
					}
				}
			}
		}
	} else {
		for _, r := range q.selection(pl) {
			if valid[r>>6]&(1<<uint(r&63)) != 0 && data[r] > 0 {
				if id := nodeIDs[r]; id >= 0 {
					out[id] = data[r]
				}
			}
		}
	}
	return out
}

// summarizeInto computes the summary of xs, reordering xs in place (the
// median is a quickselect, not a full sort).
func summarizeInto(node, metric string, xs []float64) Stats {
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
	s.Median = MedianInPlace(xs)
	return s
}

// MedianInPlace returns the median of xs, partially reordering it
// (quickselect, deterministic for a given input order).
func MedianInPlace(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	k := n / 2
	quickselect(xs, k)
	if n%2 == 1 {
		return xs[k]
	}
	// The lower middle is the max of the partition left of k.
	lo := xs[0]
	for _, x := range xs[1:k] {
		if x > lo {
			lo = x
		}
	}
	return 0.5 * (lo + xs[k])
}

// quickselect reorders xs so xs[k] is its k-th order statistic and every
// element left of k is <= xs[k]. Median-of-three pivoting; deterministic
// for a given input order.
func quickselect(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		if hi-lo < 12 {
			// Small range: insertion sort and be done. Fully sorting the
			// range satisfies the postcondition, and the selected values
			// (hence results) are identical to continued partitioning.
			for i := lo + 1; i <= hi; i++ {
				x := xs[i]
				j := i - 1
				for j >= lo && xs[j] > x {
					xs[j+1] = xs[j]
					j--
				}
				xs[j+1] = x
			}
			return
		}
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return
		}
	}
}
