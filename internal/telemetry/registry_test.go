package telemetry

import (
	"reflect"
	"testing"
	"time"
)

// stripTimes zeroes the capture timestamp so snapshots compare by
// content.
func stripTimes(s Snapshot) Snapshot {
	s.Taken = time.Time{}
	return s
}

// TestSnapshotDeterminism: two registries whose metrics were created in
// different orders but hold the same state must snapshot identically —
// the property the flusher and the differential tests rely on.
func TestSnapshotDeterminism(t *testing.T) {
	build := func(order []int) *Registry {
		r := &Registry{}
		ops := []func(){
			func() { r.Counter("c.alpha").Add(3) },
			func() { r.Counter("c.beta", "k", "v").Add(7) },
			func() { r.Gauge("g.depth").Add(2.5) },
			func() { r.Histogram("h.lat").Observe(1000) },
			func() { r.Histogram("h.lat").Observe(2000) },
			func() { r.GaugeFunc("g.fn", func() float64 { return 9 }) },
		}
		for _, i := range order {
			ops[i]()
		}
		return r
	}
	a := build([]int{0, 1, 2, 3, 4, 5})
	b := build([]int{5, 3, 1, 4, 2, 0})
	sa, sb := stripTimes(a.Snapshot()), stripTimes(b.Snapshot())
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("creation order changed the snapshot:\n%+v\n%+v", sa, sb)
	}
	// Sorted by name within each section.
	for i := 1; i < len(sa.Counters); i++ {
		if sa.Counters[i-1].Name >= sa.Counters[i].Name {
			t.Fatal("counters not sorted")
		}
	}
	for i := 1; i < len(sa.Gauges); i++ {
		if sa.Gauges[i-1].Name >= sa.Gauges[i].Name {
			t.Fatal("gauges not sorted")
		}
	}
}

// TestRegistrySharedHandles: the same name resolves to the same handle,
// so instrumented layers share series without coordination; labels fold
// into the canonical name in any order.
func TestRegistrySharedHandles(t *testing.T) {
	r := &Registry{}
	if r.Counter("a") != r.Counter("a") {
		t.Error("counter handle not shared")
	}
	if r.Counter("a", "x", "1", "y", "2") != r.Counter("a", "y", "2", "x", "1") {
		t.Error("label order created distinct counters")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("gauge handle not shared")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("histogram handle not shared")
	}
}

// TestSnapshotSub: counters and histograms delta, gauges read current,
// metrics new since the baseline appear at full value.
func TestSnapshotSub(t *testing.T) {
	r := &Registry{}
	c := r.Counter("runs")
	h := r.Histogram("lat")
	g := r.Gauge("depth")
	c.Add(5)
	h.Observe(100)
	g.Add(1)
	prev := r.Snapshot()

	c.Add(3)
	h.Observe(200)
	h.Observe(300)
	g.Add(8)
	r.Counter("fresh").Add(11)
	delta := r.Snapshot().Sub(prev)

	want := map[string]float64{"runs": 3, "fresh": 11}
	for _, cv := range delta.Counters {
		if cv.Value != want[cv.Name] {
			t.Errorf("counter %s delta = %v, want %v", cv.Name, cv.Value, want[cv.Name])
		}
		delete(want, cv.Name)
	}
	if len(want) != 0 {
		t.Errorf("missing counters in delta: %v", want)
	}
	if len(delta.Gauges) != 1 || delta.Gauges[0].Value != 9 {
		t.Errorf("gauge in delta = %+v, want current value 9", delta.Gauges)
	}
	if len(delta.Hists) != 1 || delta.Hists[0].Count != 2 || delta.Hists[0].Sum != 500 {
		t.Errorf("histogram delta = %+v, want count 2 sum 500", delta.Hists)
	}
}

// TestGaugeFunc: callback gauges are evaluated at snapshot time and
// reflect the current callback value, not the registration-time one.
func TestGaugeFunc(t *testing.T) {
	r := &Registry{}
	v := 1.0
	r.GaugeFunc("cache.hits", func() float64 { return v })
	if got := r.Snapshot().Gauges[0].Value; got != 1 {
		t.Fatalf("gauge func = %v, want 1", got)
	}
	v = 42
	if got := r.Snapshot().Gauges[0].Value; got != 42 {
		t.Fatalf("gauge func = %v, want 42", got)
	}
}

// TestRegistryConcurrent: concurrent get-or-create and snapshotting is
// safe and loses no updates (run under -race).
func TestRegistryConcurrent(t *testing.T) {
	r := &Registry{}
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				r.Counter("shared").Inc()
				r.Histogram("h").Observe(int64(i))
				_ = r.Snapshot()
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if got := r.Counter("shared").Value(); got != 4000 {
		t.Fatalf("shared counter = %d, want 4000", got)
	}
}
