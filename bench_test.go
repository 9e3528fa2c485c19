// Package rajaperf's root benchmark harness regenerates every table and
// figure of the paper's evaluation as a testing.B benchmark, reporting the
// headline numbers as custom metrics:
//
//	go test -bench=. -benchmem
//
// BenchmarkTable2_Machines reports the achieved TFLOPS/bandwidth probes,
// BenchmarkFig7_Clusters the per-cluster speedups, BenchmarkFig9_Speedups
// the TRIAD reference lines, and so on. Kernel-execution microbenchmarks
// (BenchmarkKernel*) measure the real Go implementations on the host.
package rajaperf

import (
	"context"
	"sync"
	"testing"

	"rajaperf/internal/analysis"
	"rajaperf/internal/campaign"
	"rajaperf/internal/cluster"
	"rajaperf/internal/kernels"
	_ "rajaperf/internal/kernels/algorithms"
	_ "rajaperf/internal/kernels/apps"
	_ "rajaperf/internal/kernels/basic"
	_ "rajaperf/internal/kernels/comm"
	_ "rajaperf/internal/kernels/lcals"
	_ "rajaperf/internal/kernels/polybench"
	_ "rajaperf/internal/kernels/stream"
	"rajaperf/internal/machine"
)

var (
	sessionOnce sync.Once
	session     *analysis.Session
)

// paperSession returns a shared model-only session at the paper's 32M node
// size; runs are cached per machine, so each bench iteration re-derives
// its table from cached profiles plus fresh analysis.
func paperSession() *analysis.Session {
	sessionOnce.Do(func() {
		session = analysis.NewSession(32_000_000, false)
		for _, m := range machine.Paper() {
			if _, err := session.Profile(m); err != nil {
				panic(err)
			}
		}
	})
	return session
}

// BenchmarkTable1_Inventory regenerates the Table I kernel inventory.
func BenchmarkTable1_Inventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := analysis.Table1()
		if len(out) == 0 {
			b.Fatal("empty inventory")
		}
	}
	b.ReportMetric(float64(kernels.Count()), "kernels")
}

// BenchmarkTable2_Machines regenerates the Table II machine
// characterization through the hardware models.
func BenchmarkTable2_Machines(b *testing.B) {
	s := paperSession()
	var rows []analysis.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Machine.Shorthand {
		case "SPR-DDR":
			b.ReportMetric(r.AchievedBWTBs*1000, "DDR-GB/s")
		case "EPYC-MI250X":
			b.ReportMetric(r.AchievedTFLOPS, "MI250X-TFLOPS")
		}
	}
}

// BenchmarkTable3_RunParams regenerates Table III.
func BenchmarkTable3_RunParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := analysis.Table3(32_000_000); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable4_NCUMetrics regenerates the Table IV metric list.
func BenchmarkTable4_NCUMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := analysis.Table4(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig1_AnalyticMetrics regenerates the Fig 1 per-kernel analytic
// metrics at the default size.
func BenchmarkFig1_AnalyticMetrics(b *testing.B) {
	var rows []analysis.Fig1Row
	for i := 0; i < b.N; i++ {
		rows = analysis.Fig1()
	}
	b.ReportMetric(float64(len(rows)), "kernels")
}

// BenchmarkFig2_Hierarchy renders the TMA tree.
func BenchmarkFig2_Hierarchy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := analysis.Fig2(); len(out) == 0 {
			b.Fatal("empty hierarchy")
		}
	}
}

// BenchmarkFig3_TopdownDDR regenerates the SPR-DDR top-down bars.
func BenchmarkFig3_TopdownDDR(b *testing.B) {
	benchTopdown(b, machine.SPRDDR())
}

// BenchmarkFig4_TopdownHBM regenerates the SPR-HBM top-down bars.
func BenchmarkFig4_TopdownHBM(b *testing.B) {
	benchTopdown(b, machine.SPRHBM())
}

func benchTopdown(b *testing.B, m *machine.Machine) {
	s := paperSession()
	var rows []analysis.TopdownRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Topdown(m)
		if err != nil {
			b.Fatal(err)
		}
	}
	memBound := 0
	for _, r := range rows {
		if r.Metrics.Dominant() == "memory_bound" {
			memBound++
		}
	}
	b.ReportMetric(float64(memBound), "membound-kernels")
}

// BenchmarkFig5_Roofline regenerates the P9-V100 instruction roofline.
func BenchmarkFig5_Roofline(b *testing.B) {
	s := paperSession()
	var data *analysis.RooflineData
	for i := 0; i < b.N; i++ {
		var err error
		data, err = s.Roofline(machine.P9V100())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data.Rows)), "kernels")
}

// BenchmarkFig6_Dendrogram runs the Ward agglomeration itself on the
// SPR-DDR top-down tuples.
func BenchmarkFig6_Dendrogram(b *testing.B) {
	s := paperSession()
	rows, err := s.Topdown(machine.SPRDDR())
	if err != nil {
		b.Fatal(err)
	}
	var vecs [][]float64
	var labels []string
	for _, r := range rows {
		vecs = append(vecs, r.Metrics.Vector())
		labels = append(labels, r.Kernel)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		link, err := cluster.Ward(vecs, labels)
		if err != nil {
			b.Fatal(err)
		}
		if link.NumClusters(analysis.DefaultWardThreshold) < 1 {
			b.Fatal("no clusters")
		}
	}
}

// BenchmarkFig7_Clusters regenerates the per-cluster characterization and
// speedup table.
func BenchmarkFig7_Clusters(b *testing.B) {
	s := paperSession()
	var res *analysis.ClusterResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = s.Cluster(0)
		if err != nil {
			b.Fatal(err)
		}
	}
	st := res.Stats[res.MostMemoryBoundCluster()]
	b.ReportMetric(st.SpeedupHBM, "memcluster-xHBM")
	b.ReportMetric(st.SpeedupMI250X, "memcluster-xMI250X")
}

// BenchmarkFig8_ParallelCoords regenerates the parallel-coordinate axes
// (cluster TMA means plus speedups).
func BenchmarkFig8_ParallelCoords(b *testing.B) {
	s := paperSession()
	for i := 0; i < b.N; i++ {
		res, err := s.Cluster(0)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Stats) == 0 {
			b.Fatal("no cluster axes")
		}
	}
}

// BenchmarkFig9_Speedups regenerates the four-panel memory-bound/speedup
// figure.
func BenchmarkFig9_Speedups(b *testing.B) {
	s := paperSession()
	var data *analysis.Fig9Data
	for i := 0; i < b.N; i++ {
		var err error
		data, err = s.Fig9()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(data.TriadHBM, "triad-xHBM")
	b.ReportMetric(data.TriadV100, "triad-xV100")
	b.ReportMetric(data.TriadMI250X, "triad-xMI250X")
}

// BenchmarkFig10_BWvsFlops regenerates the bandwidth-versus-FLOPS panels.
func BenchmarkFig10_BWvsFlops(b *testing.B) {
	s := paperSession()
	var panels []analysis.Fig10Data
	for i := 0; i < b.N; i++ {
		var err error
		panels, err = s.Fig10()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(panels[0].FlopHeavyKernels())), "flopheavy-kernels")
}

// benchKernel measures real host execution of one kernel variant.
func benchKernel(b *testing.B, name string, v kernels.VariantID, size int) {
	k, err := kernels.New(name)
	if err != nil {
		b.Fatal(err)
	}
	rp := kernels.RunParams{Size: size, Reps: 1}
	k.SetUp(rp)
	defer k.TearDown()
	m := k.Metrics()
	b.SetBytes(int64(m.BytesRead + m.BytesWritten))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.Run(v, rp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.Flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// Host-execution microbenchmarks: the bandwidth probe, the FLOPS probe,
// and the reduction kernel across Base and RAJA back-ends.
func BenchmarkKernelTriadBaseSeq(b *testing.B) {
	benchKernel(b, "Stream_TRIAD", kernels.BaseSeq, 1<<20)
}
func BenchmarkKernelTriadRAJASeq(b *testing.B) {
	benchKernel(b, "Stream_TRIAD", kernels.RAJASeq, 1<<20)
}
func BenchmarkKernelTriadBaseOMP(b *testing.B) {
	benchKernel(b, "Stream_TRIAD", kernels.BaseOpenMP, 1<<20)
}
func BenchmarkKernelTriadRAJAOMP(b *testing.B) {
	benchKernel(b, "Stream_TRIAD", kernels.RAJAOpenMP, 1<<20)
}
func BenchmarkKernelTriadRAJAGPU(b *testing.B) {
	benchKernel(b, "Stream_TRIAD", kernels.RAJAGPU, 1<<20)
}
func BenchmarkKernelDotRAJAOMP(b *testing.B) { benchKernel(b, "Stream_DOT", kernels.RAJAOpenMP, 1<<20) }
func BenchmarkKernelMatMulBaseOMP(b *testing.B) {
	benchKernel(b, "Basic_MAT_MAT_SHARED", kernels.BaseOpenMP, 200_000)
}
func BenchmarkKernelMatMulRAJAOMP(b *testing.B) {
	benchKernel(b, "Basic_MAT_MAT_SHARED", kernels.RAJAOpenMP, 200_000)
}
func BenchmarkKernelFIRRAJAOMP(b *testing.B) { benchKernel(b, "Apps_FIR", kernels.RAJAOpenMP, 1<<20) }
func BenchmarkKernelScanRAJAOMP(b *testing.B) {
	benchKernel(b, "Algorithm_SCAN", kernels.RAJAOpenMP, 1<<20)
}

// BenchmarkCampaign measures the campaign orchestrator end to end: plan
// expansion, two concurrent workers collecting model-only suite runs over
// two machines and two variants, and in-memory recording. Reported as
// specs/op so regressions in orchestration overhead (pool setup, manifest
// bookkeeping, per-run isolation) show up independently of kernel speed.
func BenchmarkCampaign(b *testing.B) {
	plan := campaign.Plan{
		Machines: []string{"SPR-DDR", "P9-V100"},
		Variants: []string{"RAJA_Seq"},
		Sizes:    []int{1_000_000},
		Kernels:  []string{"Stream_TRIAD", "Stream_DOT", "Basic_DAXPY"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(context.Background(), plan, campaign.Options{
			Workers: 2,
			Retain:  true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Done != 2 {
			b.Fatalf("done = %d, want 2", res.Done)
		}
	}
	b.ReportMetric(2, "specs/op")
}
