package frame

// Part is one input of a Merge: a source frame plus an ascending row
// selection into it (nil = every row). Merge is the columnar engine
// behind parallel sharded ingest.
type Part struct {
	F   *Frame
	Sel []int32
}

// rows returns the part's selected row count.
func (p Part) rows() int {
	if p.Sel == nil {
		return p.F.NumRows()
	}
	return len(p.Sel)
}

// Merge composes the parts into one new frame: profiles are renumbered
// part by part (every source profile's metadata is retained, with or
// without selected rows, so profile ids stay resolvable), dictionaries
// and the metric schema are re-interned, and metric cells move with
// dense column-major copies — no per-row metric maps are ever built.
// Metadata maps and path-segment slices are shared with the sources.
func Merge(parts ...Part) *Frame {
	totalRows := 0
	totalProfs := 0
	for _, p := range parts {
		totalRows += p.rows()
		totalProfs += p.F.NumProfiles()
	}
	f := &Frame{
		nodes:      NewDict(),
		paths:      NewDict(),
		metrics:    NewDict(),
		nodeIDs:    make([]int32, 0, totalRows),
		pathIDs:    make([]int32, 0, totalRows),
		profIDs:    make([]int32, 0, totalRows),
		meta:       make([]map[string]any, 0, totalProfs),
		profStarts: make([]int32, 0, totalProfs),
	}
	// The merged content hash chains the part hashes with their
	// selections — no rescan of the moved cells.
	for _, p := range parts {
		f.hash = mix64(f.hash ^ p.F.Hash() ^ selHash(p.Sel))
	}

	for _, part := range parts {
		src := part.F
		profBase := int32(len(f.meta))

		// Remap the source dictionaries into the merged ones lazily: a
		// source path (and its node name) is interned only when a selected
		// row actually references it, so merging filtered views never
		// leaks phantom nodes into the merged dictionaries. Path segments
		// and metadata maps are shared, not copied.
		const unmapped = int32(-2)
		pathMap := make([]int32, src.paths.Len())
		for i := range pathMap {
			pathMap[i] = unmapped
		}
		remapPath := func(sid int32) int32 {
			pid := pathMap[sid]
			if pid != unmapped {
				return pid
			}
			key := src.paths.Name(sid)
			pid, known := f.paths.Lookup(key)
			if !known {
				pid = f.paths.Intern(key)
				f.pathSegs = append(f.pathSegs, src.pathSegs[sid])
				node := src.pathNode[sid]
				if node >= 0 {
					node = f.nodes.Intern(src.nodes.Name(node))
				}
				f.pathNode = append(f.pathNode, node)
			}
			pathMap[sid] = pid
			return pid
		}

		// Profile metadata: all source profiles, renumbered.
		rowBase := int32(len(f.nodeIDs))
		starts := make([]int32, src.NumProfiles())
		for i := range starts {
			starts[i] = -1
		}
		f.meta = append(f.meta, src.meta...)

		// Index columns, row by row over the selection. The node
		// postings are rebuilt by finish. A row's node id is its path's
		// node — the same invariant the Builder maintains — so one path
		// remap resolves both index columns.
		appendRow := func(r int32) {
			row := int32(len(f.nodeIDs))
			if starts[src.profIDs[r]] < 0 {
				starts[src.profIDs[r]] = row
			}
			pid := remapPath(src.pathIDs[r])
			f.nodeIDs = append(f.nodeIDs, f.pathNode[pid])
			f.pathIDs = append(f.pathIDs, pid)
			f.profIDs = append(f.profIDs, profBase+src.profIDs[r])
		}
		if part.Sel == nil {
			for r := int32(0); r < int32(src.NumRows()); r++ {
				appendRow(r)
			}
		} else {
			for _, r := range part.Sel {
				appendRow(r)
			}
		}

		// Profiles without selected rows collapse to empty ranges at the
		// position row order dictates (selections are ascending, so rows
		// of one profile stay contiguous).
		next := int32(len(f.nodeIDs))
		for i := len(starts) - 1; i >= 0; i-- {
			if starts[i] < 0 {
				starts[i] = next
			} else {
				next = starts[i]
			}
		}
		f.profStarts = append(f.profStarts, starts...)

		// Metric cells, column-major: each source column pours into its
		// remapped schema column as one dense pass.
		for si, name := range src.metrics.Names() {
			mi := f.metrics.Intern(name)
			for int(mi) >= len(f.cols) {
				f.cols = append(f.cols, newColumn(totalRows))
			}
			dst, sc := f.cols[mi], src.cols[si]
			dst.pad(int(rowBase))
			if part.Sel == nil {
				for r, v := range sc.Data {
					if sc.valid.Get(r) {
						dst.set(int(rowBase)+r, v)
					}
				}
			} else {
				for i, r := range part.Sel {
					if v, ok := sc.Value(r); ok {
						dst.set(int(rowBase)+i, v)
					}
				}
			}
		}
	}
	return f.finish()
}
