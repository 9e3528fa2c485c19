package telemetry

import "testing"

// TestHotPathZeroAlloc is the overhead contract as a hard gate: no
// hot-path metric update may allocate.
func TestHotPathZeroAlloc(t *testing.T) {
	reg := &Registry{}
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h")
	cases := map[string]func(){
		"counter.inc":  func() { c.Inc() },
		"counter.add":  func() { c.Add(3) },
		"gauge.add":    func() { g.Add(-0.5) },
		"hist.observe": func() { h.Observe(12345) },
		"bus.nil":      func() { (*Bus)(nil).Publish(Event{}) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f times per op", name, allocs)
		}
	}
}

// BenchmarkTelemetryHotPath measures the per-update cost of each metric
// primitive — the numbers EXPERIMENTS.md records against the ≤1%
// dispatch overhead budget.
func BenchmarkTelemetryHotPath(b *testing.B) {
	reg := &Registry{}
	c := reg.Counter("bench.counter")
	h := reg.Histogram("bench.hist")

	b.Run("CounterInc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("HistObserve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i))
		}
	})
	b.Run("HistObserveParallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			v := int64(0)
			for pb.Next() {
				h.Observe(v)
				v += 997
			}
		})
	})
	b.Run("NilHandles", func(b *testing.B) {
		b.ReportAllocs()
		var nc *Counter
		var nh *Histogram
		for i := 0; i < b.N; i++ {
			nc.Inc()
			nh.Observe(int64(i))
		}
	})
}

// BenchmarkSnapshot measures the cold-path costs: registry snapshot,
// delta, and rendering — what one flush or scrape costs the process.
func BenchmarkSnapshot(b *testing.B) {
	reg := &Registry{}
	for i := 0; i < 32; i++ {
		reg.Counter(Name("bench.c", "i", string(rune('a'+i)))).Add(int64(i))
		h := reg.Histogram(Name("bench.h", "i", string(rune('a'+i))))
		for v := int64(1); v < 1<<20; v *= 3 {
			h.Observe(v)
		}
	}
	prev := reg.Snapshot()
	b.Run("Snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = reg.Snapshot()
		}
	})
	b.Run("SnapshotSub", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = reg.Snapshot().Sub(prev)
		}
	})
}

// BenchmarkBusPublish measures the per-event bus cost with an attached
// (draining) subscriber — the campaign orchestrator's per-run cost.
func BenchmarkBusPublish(b *testing.B) {
	bus := &Bus{}
	sub := bus.Subscribe(1024, 0)
	defer sub.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range sub.C {
		}
	}()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Publish(Event{Type: "run", Status: "done"})
	}
	b.StopTimer()
	sub.Close()
	<-done
}
