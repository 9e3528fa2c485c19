// Package telemetry is the suite's runtime observability plane: a
// zero-alloc-on-hot-path metrics core (atomic counters and gauges,
// log-bucketed latency histograms with subtractable snapshots), a
// process-wide Registry with cheap label support, live exposition over
// HTTP (Prometheus text, expvar-style JSON, health, and an SSE event
// stream), a small leveled structured logger, and a snapshotter that
// flushes registry deltas into a campaign directory as Caliper-profile
// telemetry records — so a collected campaign's own runtime behavior is
// queryable through the same thicket/frame machinery as its kernel data.
//
// The paper's thesis is that Caliper and Thicket make the suite itself
// observable; this package extends that to the production machinery the
// reproduction has grown around the suite — the executor pool, the
// campaign orchestrator, the resilience layer, and the query engine —
// which previously ran blind behind ad-hoc stderr lines.
//
// # Overhead contract
//
// Hot-path updates (Counter.Add, Gauge.Add, Histogram.Observe) are one
// or two uncontended atomic operations and never allocate. Metric
// handles are resolved once at setup (Registry.Counter etc., which take
// a lock) and then shared; nothing on a kernel's execution path performs
// a map lookup, string format, or allocation. Snapshots, exposition,
// and flushing are cold paths and may allocate freely.
package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter is valid and discards updates, so
// call sites need no conditional plumbing when telemetry is off.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is ignored: counters are
// monotone by contract, which the exposition formats rely on).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready; a
// nil *Gauge discards updates.
type Gauge struct {
	bits atomic.Uint64
}

// Add adjusts the gauge by delta (may be negative). Lock-free via CAS.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Log-bucketed histogram geometry. Values (nanoseconds, or any
// non-negative int64) map to buckets whose width is 1/histSub of their
// magnitude: histSubBits sub-buckets per power of two, so any recorded
// value lands in a bucket whose bounds are within 100/histSub percent
// of each other — the quantile error bound snapshots inherit.
const (
	histSubBits = 3 // sub-buckets per octave (8)
	histSub     = 1 << histSubBits

	// histBuckets covers the full non-negative int64 range: values below
	// 2*histSub are bucketed exactly (identity), and each further octave
	// contributes histSub buckets up to exponent 62.
	histBuckets = (63-histSubBits)*histSub + histSub
)

// bucketIndex maps a non-negative value to its bucket. Values below
// 2*histSub map exactly; larger values keep histSubBits bits of
// mantissa below the leading bit.
func bucketIndex(v int64) int {
	if v < 2*histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // 2^exp <= v
	shift := uint(exp - histSubBits)
	sub := int(v>>shift) & (histSub - 1)
	return (exp-histSubBits)*histSub + sub + histSub
}

// bucketBounds returns the inclusive lower and exclusive upper value
// bound of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i < 2*histSub {
		return int64(i), int64(i) + 1
	}
	block := i/histSub - 1 // octaves past the exact range
	sub := int64(i & (histSub - 1))
	shift := uint(block)
	lo = (histSub + sub) << shift
	hi = lo + 1<<shift
	if hi < lo { // top bucket: upper bound saturates at MaxInt64
		hi = math.MaxInt64
	}
	return lo, hi
}

// Histogram is a lock-free log-bucketed histogram of non-negative
// int64 samples (latencies in nanoseconds, sizes in bytes). Recording
// is two atomic adds; the relative bucket width — and therefore the
// worst-case quantile estimation error — is 1/histSub (12.5%).
// The zero value is ready; a nil *Histogram discards observations.
type Histogram struct {
	sum atomic.Int64
	// buckets are plain atomics, unpadded: a histogram is written by many
	// lanes but each sample touches one word, and the alternative —
	// padding ~500 buckets to cache lines — would cost 32 KiB per
	// histogram for a hot path that is already a single uncontended add
	// in the common case.
	buckets [histBuckets]atomic.Int64
}

// Observe records one sample. Negative samples clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// Snapshot copies the histogram into a point-in-time view.
// Safe concurrently with Observe; a snapshot taken mid-record is a
// consistent-enough view (each word is individually atomic, and Count
// is reconstructed from the bucket copies so quantile ranks never
// exceed the copied mass).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			if s.Buckets == nil {
				s.Buckets = make(map[int]int64, 16)
			}
			s.Buckets[i] = n
			s.Count += n
		}
	}
	return s
}

// HistSnapshot is a point-in-time copy of a histogram: sparse bucket
// counts plus the running sum. Snapshots subtract, so a periodic flusher
// can emit per-interval deltas whose sum reconstructs the cumulative
// series.
type HistSnapshot struct {
	Buckets map[int]int64
	Count   int64
	Sum     int64
}

// Sub returns s minus an earlier snapshot of the same histogram — the
// per-interval delta a periodic flusher records.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	out := HistSnapshot{Count: s.Count - prev.Count, Sum: s.Sum - prev.Sum}
	for i, n := range s.Buckets {
		if d := n - prev.Buckets[i]; d != 0 {
			if out.Buckets == nil {
				out.Buckets = make(map[int]int64, len(s.Buckets))
			}
			out.Buckets[i] = d
		}
	}
	return out
}

// Mean returns the arithmetic mean of the recorded samples (0 if none).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) of the recorded
// samples: the bucket holding the rank is located and the estimate
// interpolated linearly within its bounds, so the estimate is always
// inside the true value's bucket — within 1/histSub relative error.
// Returns 0 when empty.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target sample, 1-based; q=0 means the minimum.
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		n := s.Buckets[i]
		if n == 0 {
			continue
		}
		if seen+n >= rank {
			lo, hi := bucketBounds(i)
			// Interpolate by the rank's position within the bucket.
			frac := float64(rank-seen-1) / float64(n)
			return lo + int64(frac*float64(hi-lo))
		}
		seen += n
	}
	return 0
}
