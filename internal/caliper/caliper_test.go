package caliper

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"rajaperf/internal/adiak"
)

// Region runs f inside a region named name.
func (c *Recorder) Region(name string, f func()) {
	c.Begin(name)
	defer c.End(name) //nolint:errcheck // Begin guarantees matching
	f()
}

// OpenDepth reports how many regions are currently open.
func (c *Recorder) OpenDepth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.stack)
}

func TestRegionNestingAndTiming(t *testing.T) {
	c := NewRecorderWith(Config{})
	c.Begin("suite")
	c.Begin("Stream_TRIAD")
	c.SetMetric("Flops", 64)
	if err := c.End("Stream_TRIAD"); err != nil {
		t.Fatal(err)
	}
	if err := c.End("suite"); err != nil {
		t.Fatal(err)
	}
	if c.OpenDepth() != 0 {
		t.Fatal("regions left open")
	}
	p := c.Profile()
	rec := p.Find("Stream_TRIAD")
	if rec == nil {
		t.Fatal("kernel region missing from profile")
	}
	if rec.PathKey() != "suite/Stream_TRIAD" {
		t.Errorf("path = %q, want suite/Stream_TRIAD", rec.PathKey())
	}
	if rec.Metrics["Flops"] != 64 {
		t.Errorf("Flops metric = %v", rec.Metrics["Flops"])
	}
	if rec.Metrics["time"] < 0 || rec.Metrics["count"] != 1 {
		t.Errorf("time/count metrics wrong: %v", rec.Metrics)
	}
}

func TestMisnestedEndFails(t *testing.T) {
	c := NewRecorderWith(Config{})
	c.Begin("a")
	c.Begin("b")
	if err := c.End("a"); err == nil {
		t.Error("misnested End must fail")
	}
	if err := c.End("b"); err != nil {
		t.Error(err)
	}
	if err := c.End("a"); err != nil {
		t.Error(err)
	}
	if err := c.End("a"); err == nil {
		t.Error("End with empty stack must fail")
	}
}

func TestRegionAccumulatesAcrossReps(t *testing.T) {
	c := NewRecorderWith(Config{})
	for i := 0; i < 5; i++ {
		c.Region("k", func() {})
	}
	p := c.Profile()
	if got := p.Find("k").Metrics["count"]; got != 5 {
		t.Errorf("count = %v, want 5", got)
	}
}

func TestAddAndSetMetricAt(t *testing.T) {
	c := NewRecorderWith(Config{})
	c.Begin("k")
	c.SetMetric("bytes", 10)
	// Repeated calls overwrite.
	c.SetMetric("bytes", 15)
	c.End("k") //nolint:errcheck
	c.SetMetricAt([]string{"k"}, "memory_bound", 0.88)
	c.SetMetric("global", 1) // no open region: lands on "main"
	p := c.Profile()
	if got := p.Find("k").Metrics["bytes"]; got != 15 {
		t.Errorf("bytes = %v, want 15", got)
	}
	if got := p.Find("k").Metrics["memory_bound"]; got != 0.88 {
		t.Errorf("memory_bound = %v", got)
	}
	if p.Find("main") == nil {
		t.Error("rootless SetMetric should create main node")
	}
}

func TestProfileRoundtrip(t *testing.T) {
	dir := t.TempDir()
	c := NewRecorderWith(Config{})
	for k, v := range adiak.Collect() {
		c.AddMetadata(k, v)
	}
	c.AddMetadata("variant", "RAJA_Seq")
	c.AddMetadata("tuning", "default")
	c.Region("Stream_ADD", func() {})
	c.SetMetricAt([]string{"Stream_ADD"}, "Flops", 1e6)

	path := filepath.Join(dir, "run0"+FileExt)
	if err := c.Profile().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	p, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Metadata["variant"] != "RAJA_Seq" {
		t.Errorf("metadata variant = %v", p.Metadata["variant"])
	}
	if p.Find("Stream_ADD").Metrics["Flops"] != 1e6 {
		t.Error("metric lost in roundtrip")
	}

	ps, err := ReadDir(dir)
	if err != nil || len(ps) != 1 {
		t.Fatalf("ReadDir = %d profiles, err %v", len(ps), err)
	}
}

func TestCorruptProfileRejected(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad"+FileExt)
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil {
		t.Error("corrupt JSON must be rejected")
	}
	if _, err := ReadDir(dir); err == nil {
		t.Error("ReadDir must propagate corrupt-file errors")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.cali.json")); err == nil {
		t.Error("missing file must error")
	}
}

func TestValidateCatchesBadProfiles(t *testing.T) {
	cases := []Profile{
		{Records: []Record{{Path: nil}}},
		{Records: []Record{
			{Path: []string{"a"}, Metrics: map[string]float64{}},
			{Path: []string{"a"}, Metrics: map[string]float64{}},
		}},
		{Records: []Record{{Path: []string{"a"},
			Metrics: map[string]float64{"x": math.NaN()}}}},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted a bad profile", i)
		}
		if err := p.WriteFile(filepath.Join(t.TempDir(), "x.cali.json")); err == nil {
			t.Errorf("case %d: WriteFile accepted a bad profile", i)
		}
	}
}

func TestMetricNamesSorted(t *testing.T) {
	c := NewRecorderWith(Config{})
	c.Region("k", func() {
		c.SetMetric("zeta", 1)
		c.SetMetric("alpha", 2)
	})
	// The region's record carries the metrics set in it plus the count
	// and time that closing the region records.
	var names []string
	for m := range c.Profile().Find("k").Metrics {
		names = append(names, m)
	}
	sort.Strings(names)
	want := []string{"alpha", "count", "time", "zeta"}
	if len(names) != len(want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}
