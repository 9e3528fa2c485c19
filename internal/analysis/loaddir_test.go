package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rajaperf/internal/caliper"
	"rajaperf/internal/machine"
)

func TestSessionLoadDirLenient(t *testing.T) {
	dir := t.TempDir()
	for i, m := range []string{"SPR-DDR", "SPR-HBM"} {
		c := caliper.NewRecorderWith(caliper.Config{})
		c.AddMetadata("machine", m)
		c.AddMetadata("variant", "RAJA_Seq")
		c.SetMetricAt([]string{"suite", "K"}, "time", float64(i+1))
		path := filepath.Join(dir, "run"+m+caliper.FileExt)
		if err := c.Profile().WriteFile(path); err != nil {
			t.Fatal(err)
		}
	}
	// A torn profile and one without machine metadata: skipped without
	// blocking the load.
	if err := os.WriteFile(filepath.Join(dir, "torn"+caliper.FileExt), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	anon := caliper.NewRecorderWith(caliper.Config{})
	anon.SetMetricAt([]string{"suite", "K"}, "time", 9)
	if err := anon.Profile().WriteFile(filepath.Join(dir, "anon"+caliper.FileExt)); err != nil {
		t.Fatal(err)
	}

	s := NewSession(0, false)
	loaded, ferrs, err := s.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 2 {
		t.Errorf("loaded = %d, want 2", loaded)
	}
	if len(ferrs) != 1 || !strings.Contains(ferrs[0].Path, "torn") {
		t.Errorf("FileErrors = %v, want the torn file", ferrs)
	}
	// The cached profile serves without re-running the suite.
	p, err := s.Profile(machine.SPRDDR())
	if err != nil {
		t.Fatal(err)
	}
	if rec := p.Find("K"); rec == nil || rec.Metrics["time"] != 1 {
		t.Errorf("cached profile not served from disk: %+v", rec)
	}
	// Loading again does not overwrite existing cache entries.
	if loaded, _, err := s.LoadDir(dir); err != nil || loaded != 0 {
		t.Errorf("second LoadDir = %d, %v; want 0 new", loaded, err)
	}
}
