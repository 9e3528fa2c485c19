package main

import (
	"path/filepath"
	"testing"
	"time"

	"rajaperf/internal/caliper"
	"rajaperf/internal/thicket"
)

// sp builds a span with times in milliseconds.
func sp(name, layer string, start, end, parent, iter int) span {
	return span{Name: name, Layer: layer, Start: time.Duration(start) * time.Millisecond,
		End: time.Duration(end) * time.Millisecond, Parent: parent, Iter: iter}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		sp("iteration", "harness", 0, 100, -1, 0),    // 0
		sp("campaign.Run", "campaign", 10, 70, 0, 0), // 1
		sp("spec", "suite", 15, 35, 1, 0),            // 2
		sp("spec", "suite", 40, 60, 1, 0),            // 3
		sp("question", "frame", 75, 95, 0, 0),        // 4
		sp("cluster.Ward", "cluster", 80, 90, 4, 0),  // 5
	}
	want := []time.Duration{20, 20, 20, 20, 10, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i]*time.Millisecond {
			t.Errorf("span %d (%s): self %v, want %vms", i, spans[i].Name, got, want[i])
		}
	}
}

func TestSelfTimeCountsOverlapOnceAndClips(t *testing.T) {
	spans := []span{
		sp("iteration", "harness", 0, 100, -1, 0),
		// Concurrent children (a live analyzer beside the campaign)
		// overlap on 40..60: the covered union is 20..80.
		sp("campaign.Run", "campaign", 20, 60, 0, 0),
		sp("Composer.Add", "thicket", 40, 80, 0, 0),
		// A child reported past its parent's end is clipped.
		sp("late", "suite", 90, 130, 0, 0),
	}
	self := selfTimes(spans)
	if want := 30 * time.Millisecond; self[0] != want {
		t.Errorf("root self %v, want %v", self[0], want)
	}
	a := attribute(spans, "iteration")[0]
	if a.Wall != 100*time.Millisecond || a.Attributed != 70*time.Millisecond {
		t.Errorf("attribution wall %v attributed %v, want 100ms and 70ms", a.Wall, a.Attributed)
	}
	if a.Layers["campaign"] != 40*time.Millisecond || a.Layers["thicket"] != 40*time.Millisecond {
		t.Errorf("layer self times %v", a.Layers)
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", "y", -1, 0)
	tr.end(id)
	tr.region("x", "y", id, 0, func() {})
	if id != -1 {
		t.Errorf("nil tracer returned span id %d", id)
	}
}

func TestTraceProfileComposes(t *testing.T) {
	spans := []span{
		sp("iteration", "harness", 0, 100, -1, 0),
		sp("campaign.Run", "campaign", 10, 70, 0, 0),
		sp("spec", "suite", 15, 35, 1, 0),
		sp("iteration", "harness", 100, 180, -1, 1),
		sp("thicket.FromDir", "thicket", 110, 170, 3, 1),
		sp("layer_pass", "harness", 200, 300, -1, layerPassIter),
		sp("SetUp", "kernels", 210, 260, 5, layerPassIter),
	}
	dir := t.TempDir()
	path, err := exportTrace(dir, "w-seed1", "w", spans, map[string]any{"workload": "w"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := caliper.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, r := range p.Records {
		got[r.PathKey()] = r.Metrics["time"]
	}
	want := map[string]float64{
		"w":                        0.280,
		"w/iteration_000":          0.100,
		"w/iteration_000/harness":  0.040,
		"w/iteration_000/campaign": 0.040,
		"w/iteration_000/suite":    0.020,
		"w/iteration_001/thicket":  0.060,
		"w/layer_pass/kernels":     0.050,
		"w/layer_pass/harness":     0.050,
		"w/iteration_001/harness":  0.020,
		"w/iteration_001":          0.080,
		"w/layer_pass":             0.100,
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || abs(g-v) > 1e-9 {
			t.Errorf("record %s: time %v, want %v", k, g, v)
		}
	}
	tk, err := thicket.FromDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if tk.NumProfiles() != 1 || tk.NumRows() != len(p.Records) {
		t.Errorf("composed %d profiles, %d rows", tk.NumProfiles(), tk.NumRows())
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestTracerConcurrent(t *testing.T) {
	tr := newTracer()
	root := tr.begin("iteration", "harness", -1, 0)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				tr.region("Composer.Add", "thicket", root, 0, func() {})
				now := time.Now()
				tr.add("spec", "suite", root, 0, now, now)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	tr.end(root)
	if n := len(tr.snapshot()); n != 1+4*200 {
		t.Errorf("recorded %d spans, want %d", n, 1+4*200)
	}
}
