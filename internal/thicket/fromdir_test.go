package thicket

// FromDir ingests each file's flat decoded form straight into the frame
// builder, while FromProfiles ingests Profiles with metric maps. The two
// must build the same frame from the same files, and nothing FromDir,
// ReadFile or ReadDir returns may share memory with the buffers the walk
// recycles.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"rajaperf/internal/caliper"
	"rajaperf/internal/campaign"
)

// digest renders a thicket's rows with their metric columns in name
// order, then its metadata table: equal digests mean equal cells,
// whichever order the builder interned the metric names in.
func digest(t *testing.T, tk *Thicket) string {
	t.Helper()
	var b bytes.Buffer
	if err := tk.WriteMetricsCSV(&b); err != nil {
		t.Fatal(err)
	}
	if err := tk.WriteMetadataCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func sameStats(a, b []Stats) bool {
	if len(a) != len(b) {
		return false
	}
	bits := math.Float64bits
	for i := range a {
		x, y := a[i], b[i]
		if x.Node != y.Node || x.Metric != y.Metric || x.Count != y.Count ||
			bits(x.Mean) != bits(y.Mean) || bits(x.Median) != bits(y.Median) ||
			bits(x.Std) != bits(y.Std) || bits(x.Min) != bits(y.Min) || bits(x.Max) != bits(y.Max) {
			return false
		}
	}
	return true
}

// sameFrame fails unless got and want hash alike, hold the same rows,
// profiles and cells, and give bitwise-equal statistics. The engine's
// cache is cleared before each query: equal hashes would otherwise serve
// one frame's cached answer for the other.
func sameFrame(t *testing.T, got, want *Thicket, keys, metrics []string) {
	t.Helper()
	if got.f.Hash() != want.f.Hash() || got.NumRows() != want.NumRows() || got.NumProfiles() != want.NumProfiles() {
		t.Fatalf("hash %x, %d rows, %d profiles; want %x, %d rows, %d profiles",
			got.f.Hash(), got.NumRows(), got.NumProfiles(), want.f.Hash(), want.NumRows(), want.NumProfiles())
	}
	if digest(t, got) != digest(t, want) {
		t.Fatal("equal hashes, different cells or metadata")
	}
	for _, metric := range metrics {
		eng.ClearCache()
		g := got.AggregateStats(metric)
		eng.ClearCache()
		if w := want.AggregateStats(metric); len(w) == 0 || !sameStats(g, w) {
			t.Errorf("AggregateStats(%s) = %v, want %v", metric, g, w)
		}
		for _, key := range keys {
			eng.ClearCache()
			g := got.GroupStats(key, metric)
			eng.ClearCache()
			w := want.GroupStats(key, metric)
			if len(g) != len(w) || len(w) < 2 {
				t.Errorf("GroupStats(%s, %s): %d groups, want %d (at least 2)", key, metric, len(g), len(w))
			}
			for k := range w {
				if !sameStats(g[k], w[k]) {
					t.Errorf("GroupStats(%s, %s)[%s] = %v, want %v", key, metric, k, g[k], w[k])
				}
			}
		}
	}
}

// profileNames returns the profile file names in dir, sorted.
func profileNames(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+caliper.FileExt))
	if err != nil || len(names) == 0 {
		t.Fatalf("profiles in %s: %v, %v", dir, names, err)
	}
	sort.Strings(names)
	return names
}

func TestFromDirMatchesFromProfiles(t *testing.T) {
	campaignDir := t.TempDir()
	res, err := campaign.Run(context.Background(), campaign.Plan{
		Machines: []string{"SPR-DDR", "SPR-HBM", "P9-V100", "EPYC-MI250X"},
		Sizes:    []int{100_000, 200_000},
	}, campaign.Options{OutDir: campaignDir, Workers: 2})
	if err != nil || res.Done != 8 {
		t.Fatalf("campaign = %+v, %v", res, err)
	}
	benchDir, err := benchCorpusDir()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name          string
		dir           string
		keys, metrics []string
	}{
		{"campaign", campaignDir, []string{"machine", "variant", "size_per_node"}, []string{"time", "GB/s", "GFLOPS"}},
		{"bench corpus", benchDir, benchSweepKeys, benchSweepMetrics},
	} {
		t.Run(c.name, func(t *testing.T) {
			ps, err := caliper.ReadDir(c.dir)
			if err != nil {
				t.Fatal(err)
			}
			tk, err := FromDir(c.dir)
			if err != nil {
				t.Fatal(err)
			}
			sameFrame(t, tk, FromProfiles(ps), c.keys, c.metrics)
		})
	}

	// A torn file sorted among the good ones is skipped, and the rest
	// compose as before.
	ps, err := caliper.ReadDir(campaignDir)
	if err != nil {
		t.Fatal(err)
	}
	names := profileNames(t, campaignDir)
	data, err := os.ReadFile(names[3])
	if err != nil {
		t.Fatal(err)
	}
	torn := names[3][:len(names[3])-len(caliper.FileExt)] + "_torn" + caliper.FileExt
	if err := os.WriteFile(torn, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	tk, ferrs, err := FromDirLenient(campaignDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ferrs) != 1 || ferrs[0].Path != torn {
		t.Fatalf("FileErrors = %v, want the torn file alone", ferrs)
	}
	sameFrame(t, tk, FromProfiles(ps), []string{"machine"}, []string{"time"})
}

// writeOtherProfiles writes n profiles whose names and values share
// nothing with the bench corpus.
func writeOtherProfiles(t *testing.T, dir string, n int) {
	t.Helper()
	ps := make([]*caliper.Profile, n)
	for i := range ps {
		c := caliper.NewRecorderWith(caliper.Config{})
		c.AddMetadata("machine", fmt.Sprintf("other-%d", i))
		for k := 0; k < 40; k++ {
			c.SetMetricAt([]string{"other", fmt.Sprintf("Other_%03d", k)}, fmt.Sprintf("other_metric_%d", k%7), -float64(i*k))
		}
		ps[i] = c.Profile()
	}
	if err := writeProfiles(dir, ps); err != nil {
		t.Fatal(err)
	}
}

// TestFromDirOutlivesPoolReuse: what ReadFile, ReadDir and FromDir
// return stays as it was while two walks at once decode other files
// through the recycled buffers.
func TestFromDirOutlivesPoolReuse(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	if err := writeProfiles(dirA, benchCorpus()[:12]); err != nil {
		t.Fatal(err)
	}
	writeOtherProfiles(t, dirB, 12)

	p, err := caliper.ReadFile(profileNames(t, dirA)[0])
	if err != nil {
		t.Fatal(err)
	}
	ps, err := caliper.ReadDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := FromDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	render := func() (string, string) {
		data, err := json.Marshal(append([]*caliper.Profile{p}, ps...))
		if err != nil {
			t.Fatal(err)
		}
		return string(data), digest(t, tk)
	}
	wantProfiles, wantFrame := render()

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := FromDir(dirB); err != nil {
					t.Error(err)
				}
				if _, err := caliper.ReadDir(dirB); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if gotProfiles, gotFrame := render(); gotProfiles != wantProfiles || gotFrame != wantFrame {
		t.Fatal("a profile or frame changed while the walk reused its buffers")
	}
}
