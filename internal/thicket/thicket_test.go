package thicket

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rajaperf/internal/caliper"
	"rajaperf/internal/frame"
)

// Metric returns the metric value at the view's first (node, profile)
// row, with ok reporting presence. It walks the node's row postings.
func (t *Thicket) Metric(node string, id ProfileID, metric string) (float64, bool) {
	nid, ok := t.f.NodeDict().Lookup(node)
	col := t.f.Column(metric)
	if !ok || col == nil {
		return 0, false
	}
	for _, r := range t.f.NodeRows(nid) {
		if t.f.ProfIDs()[r] == int32(id) && t.selected(r) {
			return col.Value(r)
		}
	}
	return 0, false
}

// makeProfile builds a profile with one kernel node carrying the given
// time, tagged with variant metadata.
func makeProfile(variant, machine string, kernels map[string]float64) *caliper.Profile {
	c := caliper.NewRecorderWith(caliper.Config{})
	c.AddMetadata("variant", variant)
	c.AddMetadata("machine", machine)
	for name, tv := range kernels {
		c.SetMetricAt([]string{"suite", name}, "time", tv)
		c.SetMetricAt([]string{"suite", name}, "Flops", 100)
	}
	return c.Profile()
}

func TestComposeAndQuery(t *testing.T) {
	p1 := makeProfile("RAJA_Seq", "SPR-DDR", map[string]float64{"TRIAD": 2.0, "DOT": 3.0})
	p2 := makeProfile("RAJA_CUDA", "P9-V100", map[string]float64{"TRIAD": 0.5, "DOT": 1.0})
	tk := FromProfiles([]*caliper.Profile{p1, p2})
	if tk.NumProfiles() != 2 {
		t.Fatalf("NumProfiles = %d", tk.NumProfiles())
	}
	if got := tk.Nodes(); len(got) != 2 || got[0] != "DOT" || got[1] != "TRIAD" {
		t.Fatalf("Nodes = %v", got)
	}
	v, ok := tk.Metric("TRIAD", 1, "time")
	if !ok || v != 0.5 {
		t.Errorf("Metric(TRIAD, 1, time) = %v, %v", v, ok)
	}
	if _, ok := tk.Metric("MISSING", 0, "time"); ok {
		t.Error("missing node should report !ok")
	}
}

func TestGroupByAndFilter(t *testing.T) {
	tk := FromProfiles([]*caliper.Profile{
		makeProfile("RAJA_Seq", "SPR-DDR", map[string]float64{"A": 1}),
		makeProfile("RAJA_Seq", "SPR-HBM", map[string]float64{"A": 2}),
		makeProfile("RAJA_CUDA", "P9-V100", map[string]float64{"A": 3}),
	})
	groups := tk.GroupBy("variant")
	if len(groups) != 2 {
		t.Fatalf("GroupBy produced %d groups, want 2", len(groups))
	}
	if groups["RAJA_Seq"].NumRows() != 2 {
		t.Errorf("RAJA_Seq group has %d rows, want 2", groups["RAJA_Seq"].NumRows())
	}
	f := tk.Where(frame.MetaEq("machine", "SPR-HBM"))
	if f.NumRows() != 1 {
		t.Errorf("Filter kept %d rows, want 1", f.NumRows())
	}
	fn := tk.Where(frame.NodeEq("A"))
	if fn.NumRows() != 3 {
		t.Errorf("FilterNodes kept %d rows, want 3", fn.NumRows())
	}
}

// TestConcatRenumbersProfiles: composing the concatenation of two
// profile lists numbers profiles in ingest order.
func TestConcatRenumbersProfiles(t *testing.T) {
	c := FromProfiles([]*caliper.Profile{
		makeProfile("a", "m", map[string]float64{"K": 1}),
		makeProfile("b", "m", map[string]float64{"K": 2}),
	})
	if c.NumProfiles() != 2 {
		t.Fatalf("NumProfiles = %d", c.NumProfiles())
	}
	if v, ok := c.Metric("K", 1, "time"); !ok || v != 2 {
		t.Errorf("profile renumbering broken: %v %v", v, ok)
	}
	col := c.MetadataColumn("variant")
	if col[0] != "a" || col[1] != "b" {
		t.Errorf("MetadataColumn = %v", col)
	}
}

// TestMetadataColumnMatchesMetaEq: every value MetadataColumn reports,
// including the one for a profile that lacks the key, selects through
// MetaEq exactly the profiles that report it.
func TestMetadataColumnMatchesMetaEq(t *testing.T) {
	ps := []*caliper.Profile{
		makeProfile("a", "m1", map[string]float64{"K": 1, "L": 2}),
		makeProfile("b", "m2", map[string]float64{"K": 3}),
		makeProfile("a", "m3", map[string]float64{"K": 5, "L": 6}),
	}
	ps[1].Metadata["tuning"] = "block_256"
	ps[2].Metadata["tuning"] = "default"
	tk := FromProfiles(ps)
	for _, key := range []string{"variant", "tuning"} {
		col := tk.MetadataColumn(key)
		for _, v := range col {
			got := map[int32]bool{}
			for _, r := range tk.Where(frame.MetaEq(key, v)).sel {
				got[tk.f.ProfIDs()[r]] = true
			}
			for p, pv := range col {
				if got[int32(p)] != (pv == v) {
					t.Errorf("%s=%q: profile %d (value %q) selected %v", key, v, p, pv, got[int32(p)])
				}
			}
		}
	}
	if got := tk.MetadataColumn("tuning")[0]; got != frame.MissingKey {
		t.Errorf("MetadataColumn(tuning)[0] = %q, want %q", got, frame.MissingKey)
	}
}

func TestAggregateStats(t *testing.T) {
	tk := FromProfiles([]*caliper.Profile{
		makeProfile("v", "m1", map[string]float64{"K": 2}),
		makeProfile("v", "m2", map[string]float64{"K": 4}),
		makeProfile("v", "m3", map[string]float64{"K": 6}),
	})
	stats := tk.AggregateStats("time")
	var ks *Stats
	for i := range stats {
		if stats[i].Node == "K" {
			ks = &stats[i]
		}
	}
	if ks == nil {
		t.Fatal("no stats for node K")
	}
	if ks.Count != 3 || ks.Mean != 4 || ks.Median != 4 || ks.Min != 2 || ks.Max != 6 {
		t.Errorf("stats = %+v", ks)
	}
	if math.Abs(ks.Std-2) > 1e-12 {
		t.Errorf("std = %v, want 2", ks.Std)
	}
}

func TestSpeedupTable(t *testing.T) {
	base := FromProfiles([]*caliper.Profile{
		makeProfile("v", "SPR-DDR", map[string]float64{"A": 10, "B": 4}),
	})
	fast := FromProfiles([]*caliper.Profile{
		makeProfile("v", "MI250X", map[string]float64{"A": 1, "B": 8}),
	})
	sp := SpeedupTable(base, fast, "time")
	if sp["A"] != 10 {
		t.Errorf("speedup A = %v, want 10", sp["A"])
	}
	if sp["B"] != 0.5 {
		t.Errorf("speedup B = %v, want 0.5", sp["B"])
	}
}

func TestNodeVector(t *testing.T) {
	p := makeProfile("v", "m", map[string]float64{"K": 1})
	tk := FromProfiles([]*caliper.Profile{p})
	vec, ok := tk.NodeVector("K", []string{"time", "Flops"})
	if !ok || len(vec) != 2 || vec[0] != 1 || vec[1] != 100 {
		t.Errorf("NodeVector = %v, %v", vec, ok)
	}
	if _, ok := tk.NodeVector("K", []string{"missing_metric"}); ok {
		t.Error("NodeVector must fail for missing metrics")
	}
}

func TestFromDirRoundtrip(t *testing.T) {
	dir := t.TempDir()
	p := makeProfile("RAJA_Seq", "SPR-DDR", map[string]float64{"K": 1})
	if err := p.WriteFile(filepath.Join(dir, "run0"+caliper.FileExt)); err != nil {
		t.Fatal(err)
	}
	tk, err := FromDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tk.NumProfiles() != 1 {
		t.Errorf("NumProfiles = %d", tk.NumProfiles())
	}
	if _, err := FromDir(t.TempDir()); err == nil {
		t.Error("empty dir must error")
	}
}

func TestTreeRendering(t *testing.T) {
	c := caliper.NewRecorderWith(caliper.Config{})
	c.AddMetadata("variant", "RAJA_Seq")
	c.Begin("suite")
	for _, k := range []string{"Stream_TRIAD", "Basic_DAXPY"} {
		c.Begin(k)
		c.End(k) //nolint:errcheck
	}
	c.End("suite") //nolint:errcheck
	c.SetMetricAt([]string{"suite", "Stream_TRIAD"}, "time", 2.5)
	c.SetMetricAt([]string{"suite", "Basic_DAXPY"}, "time", 9.0)
	tk := FromProfiles([]*caliper.Profile{c.Profile()})

	out := tk.Tree(0, "time")
	if !strings.Contains(out, "suite") ||
		!strings.Contains(out, "Stream_TRIAD") ||
		!strings.Contains(out, "Basic_DAXPY") {
		t.Fatalf("tree missing nodes:\n%s", out)
	}
	// Hot path first: DAXPY (9.0) before TRIAD (2.5).
	if strings.Index(out, "Basic_DAXPY") > strings.Index(out, "Stream_TRIAD") {
		t.Errorf("tree not sorted by metric:\n%s", out)
	}
	// Indentation: kernels are children of suite.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "Stream_TRIAD") && !strings.Contains(line, "  Stream_TRIAD") {
			t.Errorf("kernel not indented under suite: %q", line)
		}
	}
}

func TestFromDirLenientSkipsTornProfiles(t *testing.T) {
	dir := t.TempDir()
	for i, m := range []string{"SPR-DDR", "SPR-HBM"} {
		p := makeProfile("RAJA_Seq", m, map[string]float64{"K": float64(i + 1)})
		if err := p.WriteFile(filepath.Join(dir, fmt.Sprintf("run%d%s", i, caliper.FileExt))); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "torn"+caliper.FileExt), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Strict ingestion fails; lenient ingestion composes the readable
	// profiles and reports the torn one.
	if _, err := FromDir(dir); err == nil {
		t.Error("strict FromDir accepted a torn profile")
	}
	tk, ferrs, err := FromDirLenient(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tk.NumProfiles() != 2 {
		t.Errorf("NumProfiles = %d, want 2", tk.NumProfiles())
	}
	if len(ferrs) != 1 || !strings.Contains(ferrs[0].Path, "torn") {
		t.Errorf("FileErrors = %v, want the torn file", ferrs)
	}

	// A directory with only unreadable profiles still errors, but names
	// the count.
	badDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(badDir, "x"+caliper.FileExt), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ferrs, err := FromDirLenient(badDir); err == nil || len(ferrs) != 1 {
		t.Errorf("all-torn dir = (%v, %v), want error plus the file list", ferrs, err)
	}
}
