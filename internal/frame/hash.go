package frame

// Content hashing for cache keys. A frame's 64-bit hash is accumulated
// during Builder ingest — one mix per profile's metadata and per row —
// and carried into every Snapshot, so it is available for free at seal
// time: no post-hoc scan over the columns. The hash identifies the
// ingest *sequence*; two frames built from the same profiles in the same
// order share it, which is exactly what the query cache needs for a
// recomposed campaign to re-hit its previous entries.
// It is a mixing hash, not a cryptographic one; the query cache also
// keys on the canonical query spelling, so a 64-bit collision across
// live frames is the only exposure and is vanishingly unlikely.

import (
	"fmt"
	"math"
)

const hashSeed = 0x9e3779b97f4a7c15

// Hash returns the frame's content hash.
func (f *Frame) Hash() uint64 { return f.hash }

// mix64 scrambles x: the xor-shift-multiply rounds of MurmurHash3's
// 64-bit finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// strHash is FNV-1a over s.
func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// metaHash hashes a metadata map order-independently (map iteration
// order must not leak into the content hash).
func metaHash(meta map[string]any) uint64 {
	h := uint64(len(meta)) * hashSeed
	for k, v := range meta {
		h ^= mix64(strHash(k) ^ mix64(strHash(fmt.Sprint(v))))
	}
	return h
}

// rowMetricHash hashes one metric cell from the metric's name hash (the
// dictionary id would leak interning order, which differs between runs
// because metrics arrive in map order); cells of a row are combined
// order-independently by the caller.
func rowMetricHash(nameHash uint64, v float64) uint64 {
	return mix64(nameHash*hashSeed ^ math.Float64bits(v))
}

// selHash hashes a base row selection (nil = full frame = 0).
func selHash(sel []int32) uint64 {
	if sel == nil {
		return 0
	}
	h := uint64(len(sel))*hashSeed | 1 // never 0, so "empty selection" != "full frame"
	for _, r := range sel {
		h = mix64(h ^ uint64(uint32(r)))
	}
	return h
}
