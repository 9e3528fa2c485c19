package raja

// ExclusiveScanSum writes the exclusive prefix sum of src into dst
// (RAJA::exclusive_scan); dst[0] is zero. dst may be src: each src[i] is
// read before dst[i] is written.
//
// Under parallel policies it uses the scan-reduce formulation: phase 1
// sums each chunk (no stores), phase 2 exclusive-scans the chunk totals
// in place, phase 3 rescans each chunk and stores localPrefix+offset, so
// each element is stored once and the scan allocates one scratch slice.
// Phase 3 recomputes the same ascending association phase 1 summed, so
// the result depends on the worker count but never on the schedule.
// Chunk 0's offset is +0, and a sum that starts at +0 is never -0, so
// adding it changes no bit.
func ExclusiveScanSum[T Number](p Policy, dst, src []T) {
	n := len(src)
	if len(dst) != n {
		panic("raja: scan length mismatch")
	}
	workers := p.workers()
	if p.Kind == Seq || workers <= 1 || n < 4*workers {
		var acc T
		for i, v := range src {
			dst[i] = acc
			acc += v
		}
		return
	}

	chunk := (n + workers - 1) / workers
	chunks := (n + chunk - 1) / chunk
	offsets := make([]T, chunks)
	pp := chunkLoopPolicy(p)

	// Phase 1: per-chunk totals.
	forall(pp, RangeN(chunks), spanFunc(func(_ Ctx, wlo, whi int) {
		for w := wlo; w < whi; w++ {
			lo, hi := bounds(w, chunk, n)
			var acc T
			for _, v := range src[lo:hi] {
				acc += v
			}
			offsets[w] = acc
		}
	}))

	// Phase 2: exclusive-scan the totals sequentially, in place.
	var run T
	for w := 0; w < chunks; w++ {
		t := offsets[w]
		offsets[w] = run
		run += t
	}

	// Phase 3: rescan each chunk, storing final prefixes.
	forall(pp, RangeN(chunks), spanFunc(func(_ Ctx, wlo, whi int) {
		for w := wlo; w < whi; w++ {
			lo, hi := bounds(w, chunk, n)
			var acc T
			off := offsets[w]
			for i := lo; i < hi; i++ {
				v := src[i]
				dst[i] = acc + off
				acc += v
			}
		}
	}))
}

// chunkLoopPolicy derives the policy scan and sort use to distribute
// whole chunks (not single indices) across the pool: dynamic scheduling
// with block size 1 over the chunk-index space, on the caller's pool.
func chunkLoopPolicy(p Policy) Policy {
	return Policy{Kind: Par, Workers: p.workers(), Schedule: ScheduleDynamic, Block: 1, Pool: p.Pool}
}

func bounds(w, chunk, n int) (int, int) {
	lo := w * chunk
	hi := lo + chunk
	if hi > n {
		hi = n
	}
	if lo > n {
		lo = n
	}
	return lo, hi
}
