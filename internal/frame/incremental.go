package frame

// Incremental compose: an Incremental owns a Builder whose ingest can be
// snapshotted into sealed, queryable Frames at any point, so a streaming
// campaign appends profiles without ever re-ingesting what is already
// composed.
//
// Snapshot cost model. A snapshot shares the big immutable storage with
// the live builder — metric value arrays, index columns, path segments,
// metadata maps — through length-capped slice headers, and copies only
// what later appends would mutate in place: the dictionary probe tables
// and the column validity bitmaps (a builder append sets a bit inside
// the same word a snapshot reader scans; value and index appends land
// strictly beyond every snapshot's capped length, touching disjoint
// memory). It then rebuilds the node postings for the snapshot prefix.
// The result: appending k profiles to a composed campaign of n rows
// costs O(k) ingest plus an O(n) seal — no JSON re-decode, no
// re-interning, no column copies.
//
// Concurrency contract: StartProfile/AddRow/Snapshot are issued from one
// goroutine (or externally synchronized), exactly like Builder; Frames
// returned by earlier Snapshot calls may be read concurrently with
// ongoing appends and later snapshots. That holds under the race
// detector and is exercised by the engine's tests.
//
// Each snapshot carries the builder's rolling content hash at its cut
// point, so the query cache distinguishes snapshots (an append changes
// the hash and every stale cache entry becomes unreachable) while a
// from-scratch re-ingest of the same profile sequence reproduces the
// hash and re-hits its cache entries.

// Incremental is a resumable composition: Builder ingest plus cheap
// sealed snapshots.
type Incremental struct {
	b *Builder
}

// NewIncremental returns an empty incremental composition.
func NewIncremental() *Incremental {
	return &Incremental{b: NewBuilder()}
}

// StartProfile opens the next profile; see Builder.StartProfile.
func (inc *Incremental) StartProfile(meta map[string]any) int32 {
	return inc.b.StartProfile(meta)
}

// AddRow appends one row to the current profile; see Builder.AddRow.
func (inc *Incremental) AddRow(path []string, metrics map[string]float64) {
	inc.b.AddRow(path, metrics)
}

// Snapshot seals the current state into an immutable, queryable Frame
// without disturbing ingest; appends may continue afterwards and do not
// affect the returned frame.
func (inc *Incremental) Snapshot() *Frame {
	src := inc.b.f
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
