package frame

import (
	"fmt"
	"sort"
	"unsafe"
)

// MissingKey is the group key assigned to profiles whose metadata lacks
// the grouped key entirely (distinct from a key that is present with a
// nil value, which stringifies as fmt.Sprint does).
const MissingKey = "<missing>"

// pathSepByte joins path segments into dictionary keys. It is an
// internal encoding detail only; segment slices are what callers see.
const pathSepByte = 0x1f

// Frame is the immutable columnar store behind a Thicket: one entry per
// (node, profile) row across dictionary-encoded index columns and dense
// metric columns. All accessors returning slices share the underlying
// storage and must be treated as read-only; concurrent readers are safe
// once the Frame is built.
type Frame struct {
	nodes   *Dict // node names (last path segment)
	paths   *Dict // full path keys
	metrics *Dict // metric-name schema

	pathSegs [][]string // per path id: the path's segments
	pathNode []int32    // per path id: node id of the last segment

	nodeIDs []int32   // per row
	pathIDs []int32   // per row
	profIDs []int32   // per row
	cols    []*Column // per metric id; padded to NumRows after build

	meta       []map[string]any // per profile
	profStarts []int32          // per profile: first row (rows are contiguous per profile)

	nodeRows  [][]int32 // per node id: rows carrying the node, in row order; built by finish
	nodeOrder []int32   // node ids in name order; built by finish

	hash uint64 // content hash accumulated during ingest (see hash.go)
}

// NumRows returns the row count.
func (f *Frame) NumRows() int { return len(f.nodeIDs) }

// NumProfiles returns the composed profile count.
func (f *Frame) NumProfiles() int { return len(f.meta) }

// Meta returns profile p's metadata map (shared; read-only).
func (f *Frame) Meta(p int32) map[string]any {
	if p < 0 || int(p) >= len(f.meta) {
		return nil
	}
	return f.meta[p]
}

// MetaString returns the stringified metadata value of key for profile p,
// or MissingKey when the profile does not carry the key at all.
func (f *Frame) MetaString(p int32, key string) string {
	v, ok := f.meta[p][key]
	if !ok {
		return MissingKey
	}
	if s, ok := v.(string); ok { // fmt.Sprint of a string is the string
		return s
	}
	return fmt.Sprint(v)
}

// NodeDict returns the node-name dictionary.
func (f *Frame) NodeDict() *Dict { return f.nodes }

// MetricDict returns the metric-name schema.
func (f *Frame) MetricDict() *Dict { return f.metrics }

// NodeIDs returns the per-row node-id column (shared; read-only).
func (f *Frame) NodeIDs() []int32 { return f.nodeIDs }

// ProfIDs returns the per-row profile-id column (shared; read-only).
func (f *Frame) ProfIDs() []int32 { return f.profIDs }

// PathSegsAt returns row r's path segments (shared; read-only).
func (f *Frame) PathSegsAt(r int32) []string { return f.pathSegs[f.pathIDs[r]] }

// Column returns the column of the named metric, or nil when the metric
// is not in the schema.
func (f *Frame) Column(metric string) *Column {
	id, ok := f.metrics.Lookup(metric)
	if !ok {
		return nil
	}
	return f.cols[id]
}

// ColumnAt returns the column with schema id i.
func (f *Frame) ColumnAt(i int32) *Column { return f.cols[i] }

// NodeRows returns every row carrying node, in row order (shared;
// read-only).
func (f *Frame) NodeRows(node int32) []int32 {
	if node < 0 || int(node) >= len(f.nodeRows) {
		return nil
	}
	return f.nodeRows[node]
}

// ProfileRange returns profile p's contiguous row range [lo, hi).
func (f *Frame) ProfileRange(p int32) (lo, hi int32) {
	lo = f.profStarts[p]
	if int(p)+1 < len(f.profStarts) {
		hi = f.profStarts[p+1]
	} else {
		hi = int32(len(f.nodeIDs))
	}
	return lo, hi
}

// finish seals the frame for Finish and Snapshot: pads every column to
// the final row count and builds the per-node postings lists and the
// name-ordered node ids — deferring these to seal time keeps them off
// the per-row ingest path and lets the postings be sized exactly.
func (f *Frame) finish() *Frame {
	n := len(f.nodeIDs)
	for _, c := range f.cols {
		c.pad(n)
		c.padWords(n)
	}

	counts := make([]int32, f.nodes.Len())
	valid := 0
	for _, id := range f.nodeIDs {
		if id >= 0 {
			counts[id]++
			valid++
		}
	}
	backing := make([]int32, valid)
	f.nodeRows = make([][]int32, len(counts))
	off := int32(0)
	for id, c := range counts {
		f.nodeRows[id] = backing[off : off : off+c]
		off += c
	}
	for r, id := range f.nodeIDs {
		if id >= 0 {
			f.nodeRows[id] = append(f.nodeRows[id], int32(r))
		}
	}
	// Node ids in name order, computed once at seal: every grouped
	// aggregation emits its nodes name-sorted, and walking this order
	// beats re-sorting each group's surviving ids query after query.
	f.nodeOrder = make([]int32, f.nodes.Len())
	for i := range f.nodeOrder {
		f.nodeOrder[i] = int32(i)
	}
	sort.Slice(f.nodeOrder, func(i, j int) bool {
		return f.nodes.Name(f.nodeOrder[i]) < f.nodes.Name(f.nodeOrder[j])
	})
	return f
}

// Builder ingests profiles row by row into a Frame. It is the one way
// profiles become a frame: Finish seals a batch composition, Snapshot a
// live one that keeps ingesting. It is not safe for concurrent use.
type Builder struct {
	f      *Frame
	keyBuf []byte // scratch for path-key lookups
	colCap int    // row capacity hint for newly interned metric columns
	names  nameCache
	mHash  []uint64 // per metric id: name hash, memoized for the row hash
}

// nameCache memoizes metric-name interning by string identity: profiles
// produced in-process (suite kernels, measurement services, the
// campaign orchestrator) pass the same literal or hoisted name strings
// to the Recorder on every record, and the caliper decoder interns each
// metric name in a table that outlives the file, so the (data pointer,
// length) pair repeats across rows and resolves without hashing any
// bytes; a decoded file misses at most on its first record. Two strings
// with equal data pointer and length are the same string, so a hit is
// always correct: the cached pointer keeps its string alive, so its
// address is never reused for another string while cached. An empty
// string may have a nil data pointer, as an unused slot does, so a nil
// pointer never hits.
type nameCache struct {
	ptrs [nameCacheSize]*byte
	lens [nameCacheSize]int
	ids  [nameCacheSize]int32
}

const nameCacheSize = 128

func (nc *nameCache) slot(s string) uintptr {
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return (p>>3 ^ p>>10 ^ uintptr(len(s))) & (nameCacheSize - 1)
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{f: &Frame{
		nodes:   NewDict(),
		paths:   NewDict(),
		metrics: NewDict(),
	}}
}

// Reserve presizes the builder for about rows total rows, so ingest of a
// known-size profile set never regrows the index columns or metric
// columns. Call before the first StartProfile; a zero or negative hint
// is ignored.
func (b *Builder) Reserve(rows int) {
	if rows <= 0 || len(b.f.nodeIDs) > 0 {
		return
	}
	f := b.f
	b.colCap = rows
	f.nodeIDs = make([]int32, 0, rows)
	f.pathIDs = make([]int32, 0, rows)
	f.profIDs = make([]int32, 0, rows)
}

// StartProfile opens the next profile and returns its id. Subsequent
// AddRow calls attach to it. The metadata map is shared, not copied —
// the frame is read-only and ingest takes ownership of the profile.
func (b *Builder) StartProfile(meta map[string]any) int32 {
	f := b.f
	id := int32(len(f.meta))
	if meta == nil {
		meta = map[string]any{}
	}
	f.meta = append(f.meta, meta)
	f.profStarts = append(f.profStarts, int32(len(f.nodeIDs)))
	f.hash = mix64(f.hash ^ metaHash(meta) ^ hashSeed)
	return id
}

// AddRow appends one (node, profile) row for the profile most recently
// started, interning its path and metric names and filling the metric
// columns. Path segments are copied on first intern only; resolving an
// already-known path or metric name allocates nothing.
func (b *Builder) AddRow(path []string, metrics map[string]float64) {
	row, h := b.beginRow(path)
	for name, v := range metrics {
		h ^= b.cell(row, name, v)
	}
	b.f.hash = mix64(b.f.hash ^ h)
}

// AddCells appends a row like AddRow whose metrics are the parallel
// names and vals slices, each name at most once. Neither slice is kept.
func (b *Builder) AddCells(path, names []string, vals []float64) {
	row, h := b.beginRow(path)
	for i, name := range names {
		h ^= b.cell(row, name, vals[i])
	}
	b.f.hash = mix64(b.f.hash ^ h)
}

// beginRow appends the row's index entries and returns its row number
// and the seed of its content hash: the path id, to which the caller
// XORs each cell's hash (cells combine order-independently, since a map
// feeds them in no fixed order).
func (b *Builder) beginRow(path []string) (row int, hash uint64) {
	f := b.f
	if len(f.meta) == 0 {
		panic("frame: AddRow before StartProfile")
	}
	row = len(f.nodeIDs)

	buf := b.keyBuf[:0]
	for i, s := range path {
		if i > 0 {
			buf = append(buf, pathSepByte)
		}
		buf = append(buf, s...)
	}
	b.keyBuf = buf
	pid, known := f.paths.lookupBytes(buf)
	if !known {
		pid = f.paths.Intern(string(buf))
		segs := append([]string(nil), path...)
		f.pathSegs = append(f.pathSegs, segs)
		node := int32(-1)
		if len(segs) > 0 {
			node = f.nodes.Intern(segs[len(segs)-1])
		}
		f.pathNode = append(f.pathNode, node)
	}
	f.nodeIDs = append(f.nodeIDs, f.pathNode[pid])
	f.pathIDs = append(f.pathIDs, pid)
	f.profIDs = append(f.profIDs, int32(len(f.meta)-1))
	return row, mix64(uint64(uint32(pid)) + hashSeed)
}

// cell stores one metric value of row, interning its name, and returns
// the cell's hash.
func (b *Builder) cell(row int, name string, v float64) uint64 {
	f := b.f
	var mi int32
	nc := &b.names
	p := unsafe.StringData(name)
	if i := nc.slot(name); p != nil && nc.ptrs[i] == p && nc.lens[i] == len(name) {
		mi = nc.ids[i]
	} else {
		mi = f.metrics.Intern(name)
		nc.ptrs[i] = p
		nc.lens[i] = len(name)
		nc.ids[i] = mi
	}
	for int(mi) >= len(f.cols) {
		f.cols = append(f.cols, newColumn(b.colCap))
	}
	for int(mi) >= len(b.mHash) {
		b.mHash = append(b.mHash, strHash(f.metrics.Name(int32(len(b.mHash)))))
	}
	f.cols[mi].set(row, v)
	return rowMetricHash(b.mHash[mi], v)
}

// Finish seals and returns the frame. The builder must not be used
// afterwards.
func (b *Builder) Finish() *Frame {
	f := b.f
	b.f = nil
	return f.finish()
}

// Snapshot seals the profiles ingested so far into an immutable,
// queryable Frame without disturbing ingest: appends may continue
// afterwards and do not affect the returned frame. It must not follow
// Finish.
//
// Cost model. A snapshot shares the big immutable storage with the live
// builder — metric value arrays, index columns, path segments, metadata
// maps — through length-capped slice headers, and copies only what later
// appends would mutate in place: the dictionary probe tables and the
// column validity bitmaps (an append sets a bit inside the same word a
// snapshot reader scans; value and index appends land strictly beyond
// every snapshot's capped length, touching disjoint memory). It then
// rebuilds the node postings for the snapshot prefix. Appending k
// profiles to a composed campaign of n rows thus costs O(k) ingest plus
// an O(n) seal — no JSON re-decode, no re-interning, no column copies.
//
// Concurrency contract: StartProfile, AddRow and Snapshot are issued
// from one goroutine (or externally synchronized); frames returned by
// earlier Snapshot calls may be read concurrently with ongoing appends
// and later snapshots. That holds under the race detector and is
// exercised by the engine's tests.
//
// Each snapshot carries the builder's rolling content hash at its cut
// point, so the query cache tells snapshots apart (an append changes the
// hash, so stale entries become unreachable) while a from-scratch ingest
// of the same profile sequence reproduces the hash and re-hits them.
func (b *Builder) Snapshot() *Frame {
	src := b.f
	n := len(src.nodeIDs)
	s := &Frame{
		nodes:      src.nodes.snapshot(),
		paths:      src.paths.snapshot(),
		metrics:    src.metrics.snapshot(),
		pathSegs:   capSegs(src.pathSegs),
		pathNode:   capI32(src.pathNode),
		nodeIDs:    capI32(src.nodeIDs),
		pathIDs:    capI32(src.pathIDs),
		profIDs:    capI32(src.profIDs),
		meta:       src.meta[:len(src.meta):len(src.meta)],
		profStarts: capI32(src.profStarts),
		hash:       src.hash,
	}
	s.cols = make([]*Column, len(src.cols))
	words := (n + 63) / 64
	for i, c := range src.cols {
		// Pad the live column to the cut point first: every later append
		// then lands strictly beyond the snapshot's capped view, in
		// disjoint memory, so the value array can be shared. The validity
		// bitmap cannot — an append into the cut point's partial word
		// would mutate a word the snapshot scans — so it is copied.
		c.pad(n)
		valid := make(Bitmap, words)
		copy(valid, c.valid)
		if n&63 != 0 && n>>6 < len(valid) {
			valid[n>>6] &= (1 << uint(n&63)) - 1
		}
		s.cols[i] = &Column{Data: c.Data[:n:n], valid: valid}
	}
	return s.finish()
}

// snapshot returns a read-only copy-on-cut view of the dictionary: the
// id-ordered names are shared through a capped header (interning only
// appends), while the probe table — mutated in place by future interns
// and replaced wholesale by growth — is copied.
func (d *Dict) snapshot() *Dict {
	tab := make([]int32, len(d.tab))
	copy(tab, d.tab)
	return &Dict{names: d.names[:len(d.names):len(d.names)], tab: tab}
}

func capI32(s []int32) []int32 { return s[:len(s):len(s)] }

func capSegs(s [][]string) [][]string { return s[:len(s):len(s)] }
