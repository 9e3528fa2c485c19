package thicket

// Campaign-scale composition benchmarks: a synthetic 500-profile corpus
// shaped like one campaign sweep (machines x variants x schedules x
// repetition), each profile carrying the suite's ~76 kernel nodes with a
// realistic metric-column count. BenchmarkThicketCompose measures ingest
// (the FromProfiles path), BenchmarkThicketFromDir the same corpus read
// from profile files (decode, validation and ingest: the FromDir path),
// BenchmarkThicketGroupStats one groupby-then-aggregate call,
// BenchmarkThicketGroupStatsView a cold aggregation sweep over a filtered
// view, and BenchmarkThicketComposeGroupStats the compose+groupstats path
// the acceptance criteria track: compose once, then run the paper's
// analysis sweep — aggregate statistics grouped by each metadata
// dimension for the primary and derived metric columns.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"rajaperf/internal/caliper"
	"rajaperf/internal/frame"
)

const (
	benchProfiles = 500
	benchKernels  = 76
	benchMetrics  = 12
)

var benchMachines = []string{"SPR-DDR", "SPR-HBM", "P9-V100", "EPYC-MI250X"}

// benchCorpus builds the synthetic campaign corpus once per process.
func benchCorpus() []*caliper.Profile {
	benchCorpusOnce()
	return benchCorpusProfiles
}

var benchCorpusProfiles []*caliper.Profile

func benchCorpusOnce() {
	if benchCorpusProfiles != nil {
		return
	}
	// Kernel and metric names are built once and reused across records,
	// like the literal region and counter names the suite's kernels and
	// measurement services pass to the Recorder.
	kernelNames := make([]string, benchKernels)
	for k := range kernelNames {
		kernelNames[k] = fmt.Sprintf("Kernel_%02d", k)
	}
	metricNames := make([]string, benchMetrics)
	for m := range metricNames {
		metricNames[m] = fmt.Sprintf("metric_%02d", m)
	}
	ps := make([]*caliper.Profile, 0, benchProfiles)
	for i := 0; i < benchProfiles; i++ {
		c := caliper.NewRecorderWith(caliper.Config{})
		c.AddMetadata("machine", benchMachines[i%len(benchMachines)])
		c.AddMetadata("variant", fmt.Sprintf("variant_%d", i%3))
		c.AddMetadata("executor.schedule", []string{"static", "dynamic", "guided"}[i%3])
		c.AddMetadata("campaign.spec", fmt.Sprintf("spec-%04d", i))
		for k := 0; k < benchKernels; k++ {
			path := []string{"suite", kernelNames[k]}
			for m := 0; m < benchMetrics; m++ {
				v := float64(i*benchKernels+k)*1e-6 + float64(m)
				c.SetMetricAt(path, metricNames[m], v)
			}
			c.SetMetricAt(path, "time", float64(k+1)*1e-3*float64(1+i%7))
		}
		ps = append(ps, c.Profile())
	}
	benchCorpusProfiles = ps
}

// benchDir is the directory benchCorpusDir wrote, which TestMain removes.
var benchDir string

// benchCorpusDir writes the bench corpus once per process as profile
// files, one per profile in corpus order.
var benchCorpusDir = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "thicket-bench-")
	if err != nil {
		return "", err
	}
	benchDir = dir
	return dir, writeProfiles(dir, benchCorpus())
})

// writeProfiles writes ps into dir as run0000.cali.json, run0001... in
// the bytes Profile.WriteFile writes, without its per-file fsync.
func writeProfiles(dir string, ps []*caliper.Profile) error {
	for i, p := range ps {
		data, err := json.MarshalIndent(p, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("run%04d%s", i, caliper.FileExt)), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func TestMain(m *testing.M) {
	code := m.Run()
	if benchDir != "" {
		os.RemoveAll(benchDir)
	}
	os.Exit(code)
}

func BenchmarkThicketCompose(b *testing.B) {
	ps := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk := FromProfiles(ps)
		if tk.NumProfiles() != benchProfiles {
			b.Fatal("bad compose")
		}
	}
}

func BenchmarkThicketFromDir(b *testing.B) {
	dir, err := benchCorpusDir()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk, err := FromDir(dir)
		if err != nil || tk.NumProfiles() != benchProfiles {
			b.Fatalf("FromDir = %v, %v", tk, err)
		}
	}
}

func BenchmarkThicketGroupStats(b *testing.B) {
	tk := FromProfiles(benchCorpus())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gs := tk.GroupStats("machine", "time")
		if len(gs) != len(benchMachines) {
			b.Fatalf("groups = %d", len(gs))
		}
	}
}

// BenchmarkThicketGroupStatsView runs the key x metric sweep over the
// corpus's kernel-node view, Where(Not(NodeEq("suite"))), the shape of
// every analysis question that filters before it aggregates. The cache
// is cleared every iteration, so the Where and each GroupStats run cold
// on the view path.
func BenchmarkThicketGroupStatsView(b *testing.B) {
	tk := FromProfiles(benchCorpus())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame.DefaultEngine().ClearCache()
		if benchSweep(tk.Where(frame.Not(frame.NodeEq("suite")))) == 0 {
			b.Fatal("no groups")
		}
	}
}

// benchSweepKeys and benchSweepMetrics define the grouped-aggregation
// sweep of the compose+groupstats benchmark: every metadata dimension of
// the campaign crossed with the primary metric and two derived columns,
// the shape of the paper's per-machine/per-variant/per-tuning analyses.
var (
	benchSweepKeys    = []string{"machine", "variant", "executor.schedule"}
	benchSweepMetrics = []string{"time", "metric_00", "metric_06"}
)

func BenchmarkThicketComposeGroupStats(b *testing.B) {
	ps := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk := FromProfiles(ps)
		groups := 0
		for _, key := range benchSweepKeys {
			for _, metric := range benchSweepMetrics {
				groups += len(tk.GroupStats(key, metric))
			}
		}
		if groups == 0 {
			b.Fatal("no groups")
		}
	}
}

func BenchmarkThicketFilterGroupBy(b *testing.B) {
	tk := FromProfiles(benchCorpus())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame.DefaultEngine().ClearCache() // time the filter and group pass, not a cache hit
		f := tk.Where(frame.Not(frame.MetaEq("variant", "variant_1")))
		gs := f.GroupBy("executor.schedule")
		if len(gs) == 0 {
			b.Fatal("no groups")
		}
	}
}
