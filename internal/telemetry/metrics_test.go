package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestBucketRoundTrip: every value must land in a bucket whose bounds
// contain it, and every bucket past the exact range must be no wider
// than 1/histSub of its lower bound — the advertised quantile error.
func TestBucketRoundTrip(t *testing.T) {
	values := []int64{0, 1, 7, 15, 16, 17, 100, 1023, 1024, 1025,
		1<<20 - 1, 1 << 20, 1<<20 + 1, 1 << 40, 1<<62 - 1, 1 << 62, math.MaxInt64}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10_000; i++ {
		values = append(values, rng.Int63())
	}
	for _, v := range values {
		i := bucketIndex(v)
		lo, hi := bucketBounds(i)
		if v < lo || v >= hi && !(v == math.MaxInt64 && hi == math.MaxInt64) {
			t.Fatalf("value %d bucketed to [%d, %d)", v, lo, hi)
		}
		if i >= 2*histSub && hi != math.MaxInt64 {
			if width := hi - lo; width > lo/histSub {
				t.Fatalf("bucket %d [%d, %d): width %d exceeds %d", i, lo, hi, width, lo/histSub)
			}
		}
	}
	// Bucket indexes are monotone in the value.
	prev := -1
	for v := int64(0); v < 100_000; v += 13 {
		if i := bucketIndex(v); i < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, i, prev)
		} else {
			prev = i
		}
	}
}

// TestHistogramQuantileOracle compares the histogram's interpolated
// quantiles against an exact sort of the same samples: the estimate must
// fall inside the bucket that holds the exact value — the bucket-width
// error contract.
func TestHistogramQuantileOracle(t *testing.T) {
	dists := map[string]func(r *rand.Rand) int64{
		"uniform":   func(r *rand.Rand) int64 { return r.Int63n(1_000_000) },
		"exp":       func(r *rand.Rand) int64 { return int64(r.ExpFloat64() * 50_000) },
		"lognormal": func(r *rand.Rand) int64 { return int64(math.Exp(r.NormFloat64()*2 + 10)) },
		"small":     func(r *rand.Rand) int64 { return r.Int63n(20) },
	}
	for name, gen := range dists {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			var h Histogram
			samples := make([]int64, 5000)
			for i := range samples {
				samples[i] = gen(rng)
				h.Observe(samples[i])
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			s := h.Snapshot()
			if s.Count != int64(len(samples)) {
				t.Fatalf("snapshot count %d, want %d", s.Count, len(samples))
			}
			for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
				rank := int(math.Ceil(q * float64(len(samples))))
				if rank < 1 {
					rank = 1
				}
				exact := samples[rank-1]
				lo, hi := bucketBounds(bucketIndex(exact))
				if est := s.Quantile(q); est < lo || est >= hi {
					t.Errorf("q=%g: estimate %d outside the exact value %d's bucket [%d, %d)", q, est, exact, lo, hi)
				}
			}
			var sum int64
			for _, v := range samples {
				sum += v
			}
			if s.Sum != sum {
				t.Errorf("snapshot sum %d, want %d", s.Sum, sum)
			}
		})
	}
}

// Merge returns the combination of s and o (associative, commutative).
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	out := HistSnapshot{Count: s.Count + o.Count, Sum: s.Sum + o.Sum}
	if len(s.Buckets)+len(o.Buckets) > 0 {
		out.Buckets = make(map[int]int64, len(s.Buckets)+len(o.Buckets))
		for i, n := range s.Buckets {
			out.Buckets[i] += n
		}
		for i, n := range o.Buckets {
			out.Buckets[i] += n
		}
	}
	return out
}

// TestHistSnapshotMerge: merging is associative and commutative, and a
// merge of parts equals one histogram fed everything.
func TestHistSnapshotMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var whole Histogram
	parts := make([]*Histogram, 3)
	snaps := make([]HistSnapshot, 3)
	for i := range parts {
		parts[i] = &Histogram{}
		for j := 0; j < 1000+i*500; j++ {
			v := rng.Int63n(1 << uint(10+i*8))
			parts[i].Observe(v)
			whole.Observe(v)
		}
		snaps[i] = parts[i].Snapshot()
	}
	left := snaps[0].Merge(snaps[1]).Merge(snaps[2])
	right := snaps[0].Merge(snaps[1].Merge(snaps[2]))
	swapped := snaps[2].Merge(snaps[0]).Merge(snaps[1])
	all := whole.Snapshot()
	for _, m := range []HistSnapshot{left, right, swapped} {
		if m.Count != all.Count || m.Sum != all.Sum {
			t.Fatalf("merge count/sum %d/%d, want %d/%d", m.Count, m.Sum, all.Count, all.Sum)
		}
		if len(m.Buckets) != len(all.Buckets) {
			t.Fatalf("merge has %d buckets, want %d", len(m.Buckets), len(all.Buckets))
		}
		for i, n := range all.Buckets {
			if m.Buckets[i] != n {
				t.Fatalf("bucket %d: merged %d, want %d", i, m.Buckets[i], n)
			}
		}
	}
}

// TestHistSnapshotSub: (later - earlier) + earlier reconstructs later,
// and a delta of identical snapshots is empty.
func TestHistSnapshotSub(t *testing.T) {
	var h Histogram
	for i := int64(0); i < 100; i++ {
		h.Observe(i * 37)
	}
	early := h.Snapshot()
	for i := int64(0); i < 50; i++ {
		h.Observe(i * 1000)
	}
	late := h.Snapshot()

	delta := late.Sub(early)
	if delta.Count != 50 {
		t.Fatalf("delta count %d, want 50", delta.Count)
	}
	rebuilt := early.Merge(delta)
	if rebuilt.Count != late.Count || rebuilt.Sum != late.Sum {
		t.Fatalf("rebuilt %d/%d, want %d/%d", rebuilt.Count, rebuilt.Sum, late.Count, late.Sum)
	}
	for i, n := range late.Buckets {
		if rebuilt.Buckets[i] != n {
			t.Fatalf("rebuilt bucket %d = %d, want %d", i, rebuilt.Buckets[i], n)
		}
	}
	if empty := late.Sub(late); empty.Count != 0 || empty.Sum != 0 || len(empty.Buckets) != 0 {
		t.Fatalf("self-delta not empty: %+v", empty)
	}
}

// TestConcurrentWriters hammers one counter, gauge, and histogram from
// many goroutines with snapshots taken mid-flight; run under -race this
// is the data-race gate, and the final totals must be exact.
func TestConcurrentWriters(t *testing.T) {
	const writers, perWriter = 8, 10_000
	var (
		c  Counter
		g  Gauge
		h  Histogram
		wg sync.WaitGroup
	)
	stop := make(chan struct{})
	go func() { // concurrent reader: snapshots must never crash or tear
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				var n int64
				for _, b := range s.Buckets {
					n += b
				}
				if n != s.Count {
					t.Error("snapshot count does not match bucket mass")
					return
				}
				_ = c.Value()
				_ = g.Value()
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(w*perWriter + i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if got := c.Value(); got != writers*perWriter {
		t.Errorf("counter = %d, want %d", got, writers*perWriter)
	}
	if got := g.Value(); got != writers*perWriter {
		t.Errorf("gauge = %g, want %d", got, writers*perWriter)
	}
	if got := h.Snapshot().Count; got != writers*perWriter {
		t.Errorf("histogram count = %d, want %d", got, writers*perWriter)
	}
}

// TestNilHandles: every handle type must be a no-op when nil, so call
// sites never need conditionals.
func TestNilHandles(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
		b *Bus
		l *Logger
	)
	c.Inc()
	c.Add(5)
	g.Add(-1)
	h.Observe(42)
	b.Publish(Event{Type: "run"})
	l.Info("dropped")
	l.Error("also dropped")
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil handles reported nonzero values")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Error("nil histogram snapshot not empty")
	}
	if p, d := b.Stats(); p != 0 || d != 0 {
		t.Error("nil bus reported traffic")
	}
}

// TestCounterMonotone: negative adds are discarded by contract.
func TestCounterMonotone(t *testing.T) {
	var c Counter
	c.Add(10)
	c.Add(-5)
	if got := c.Value(); got != 10 {
		t.Fatalf("counter = %d after negative add, want 10", got)
	}
}

func TestName(t *testing.T) {
	cases := []struct {
		base   string
		labels []string
		want   string
	}{
		{"campaign.runs", nil, "campaign.runs"},
		{"campaign.runs", []string{"status", "done"}, `campaign.runs{status="done"}`},
		{"x", []string{"b", "2", "a", "1"}, `x{a="1",b="2"}`},
	}
	for _, c := range cases {
		if got := Name(c.base, c.labels...); got != c.want {
			t.Errorf("Name(%q, %v) = %q, want %q", c.base, c.labels, got, c.want)
		}
	}
	base, labels := SplitName(`x{a="1"}`)
	if base != "x" || labels != `{a="1"}` {
		t.Errorf("SplitName = %q, %q", base, labels)
	}
}
