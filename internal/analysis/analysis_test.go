package analysis

import (
	"strings"
	"testing"

	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
)

// session is shared across tests; runs are cached per machine.
var session = NewSession(0, false)

func TestTable1InventoryComplete(t *testing.T) {
	out := Table1()
	if !strings.Contains(out, "Total kernels: 76") {
		t.Errorf("inventory should list 76 kernels:\n%s", out[strings.LastIndex(out, "Total"):])
	}
	for _, probe := range []string{"Stream_TRIAD", "Basic_MAT_MAT_SHARED",
		"Comm_HALO_EXCHANGE", "Polybench_GEMM", "Apps_EDGE3D"} {
		if !strings.Contains(out, probe) {
			t.Errorf("inventory missing %s", probe)
		}
	}
}

func TestTable2MatchesPaperCalibration(t *testing.T) {
	rows, err := session.Table2()
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table II: achieved TFLOPS and TB/s per node.
	want := map[string][2]float64{
		"SPR-DDR":     {0.8, 0.5},
		"SPR-HBM":     {0.7, 1.1},
		"P9-V100":     {7.0, 3.3},
		"EPYC-MI250X": {13.3, 10.2},
	}
	for _, r := range rows {
		w := want[r.Machine.Shorthand]
		if rel(r.AchievedTFLOPS, w[0]) > 0.25 {
			t.Errorf("%s achieved TFLOPS = %.2f, paper %.1f (>25%% off)",
				r.Machine, r.AchievedTFLOPS, w[0])
		}
		if rel(r.AchievedBWTBs, w[1]) > 0.25 {
			t.Errorf("%s achieved TB/s = %.2f, paper %.1f (>25%% off)",
				r.Machine, r.AchievedBWTBs, w[1])
		}
	}
}

func rel(got, want float64) float64 {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}

func TestTable3And4Render(t *testing.T) {
	t3 := Table3(32_000_000)
	if !strings.Contains(t3, "285714") { // 32M / 112 ranks
		t.Errorf("Table III should show per-process size 285714:\n%s", t3)
	}
	t4 := Table4()
	if !strings.Contains(t4, "sm__sass_thread_inst_executed.sum") ||
		!strings.Contains(t4, "dram__sectors_read.sum") {
		t.Error("Table IV missing NCU metrics")
	}
}

func TestFig1ShapesMatchPaper(t *testing.T) {
	rows := Fig1()
	byName := map[string]Fig1Row{}
	for _, r := range rows {
		byName[r.Kernel] = r
	}
	// TRIAD: 2 reads + 1 write + 2 flops per element.
	tr := byName["Stream_TRIAD"]
	if tr.BytesReadPer != 16 || tr.BytesWritePer != 8 || tr.FlopsPer != 2 {
		t.Errorf("TRIAD fig1 row = %+v", tr)
	}
	// Matrix kernels do the most flops per problem-size unit.
	if byName["Polybench_GEMM"].FlopsPer <= byName["Stream_TRIAD"].FlopsPer {
		t.Error("GEMM must exceed TRIAD in flops per unit")
	}
	if byName["Apps_EDGE3D"].FlopsPerByte <= 1 {
		t.Errorf("EDGE3D intensity = %v, expected > 1", byName["Apps_EDGE3D"].FlopsPerByte)
	}
}

func TestFig2Hierarchy(t *testing.T) {
	out := Fig2()
	for _, cat := range []string{"Frontend Bound", "Bad Speculation", "Retiring",
		"Backend Bound", "Core Bound", "Memory Bound", "DRAM Bound"} {
		if !strings.Contains(out, cat) {
			t.Errorf("Fig2 hierarchy missing %q", cat)
		}
	}
}

func TestTopdownDDRvsHBM(t *testing.T) {
	ddrRows, err := session.Topdown(machine.SPRDDR())
	if err != nil {
		t.Fatal(err)
	}
	hbmRows, err := session.Topdown(machine.SPRHBM())
	if err != nil {
		t.Fatal(err)
	}
	ddr := map[string]float64{}
	for _, r := range ddrRows {
		ddr[r.Kernel] = r.Metrics.MemoryBound
	}
	// Sec III-A: SCAN and GESUMMV are strongly memory bound on DDR and
	// relieved on HBM; REDUCE_SUM's bottleneck is not memory on either.
	for _, r := range hbmRows {
		switch r.Kernel {
		case "Algorithm_SCAN", "Polybench_GESUMMV":
			if ddr[r.Kernel] < 0.5 {
				t.Errorf("%s DDR memory bound = %.3f, want > 0.5", r.Kernel, ddr[r.Kernel])
			}
			if r.Metrics.MemoryBound >= ddr[r.Kernel] {
				t.Errorf("%s HBM memory bound %.3f !< DDR %.3f",
					r.Kernel, r.Metrics.MemoryBound, ddr[r.Kernel])
			}
		case "Algorithm_REDUCE_SUM":
			if ddr[r.Kernel] > 0.4 {
				t.Errorf("REDUCE_SUM DDR memory bound = %.3f, want low", ddr[r.Kernel])
			}
		}
	}
	// Stream kernels are among the most memory bound on DDR (Fig 3).
	if ddr["Stream_TRIAD"] < 0.6 {
		t.Errorf("TRIAD DDR memory bound = %.3f", ddr["Stream_TRIAD"])
	}
	if _, err := session.Topdown(machine.P9V100()); err == nil {
		t.Error("Topdown must reject GPU machines")
	}
}

func TestRooflineP9V100(t *testing.T) {
	data, err := session.Roofline(machine.P9V100())
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Rows) < 50 {
		t.Fatalf("only %d kernels on the roofline", len(data.Rows))
	}
	for _, r := range data.Rows {
		if len(r.Points) != 3 {
			t.Fatalf("%s has %d roofline points", r.Kernel, len(r.Points))
		}
		for i, p := range r.Points {
			// No kernel above the ceilings.
			level := []string{"L1", "L2", "HBM"}[i]
			if p.GIPS > data.MaxGIPS*1.001 {
				t.Errorf("%s exceeds instruction roof: %.1f GIPS", r.Kernel, p.GIPS)
			}
			if p.GIPS > p.Intensity*data.Ceilings[level]*1.001 {
				t.Errorf("%s above the %s bandwidth diagonal", r.Kernel, level)
			}
		}
		// Intensity grows down the hierarchy (fewer transactions),
		// except L1->L2 for atomic kernels whose RMWs bypass L1.
		if r.Points[2].Intensity < r.Points[1].Intensity {
			t.Errorf("%s HBM intensity below L2", r.Kernel)
		}
		k, _ := kernels.New(r.Kernel)
		if k != nil && !k.Info().HasFeature(kernels.FeatAtomic) &&
			r.Points[1].Intensity < r.Points[0].Intensity {
			t.Errorf("%s L2 intensity below L1", r.Kernel)
		}
	}
	if _, err := session.Roofline(machine.SPRDDR()); err == nil {
		t.Error("Roofline must reject CPU machines")
	}
}

func TestClusteringMatchesPaperStory(t *testing.T) {
	res, err := session.Cluster(0)
	if err != nil {
		t.Fatal(err)
	}
	// The paper excludes 12 of its 75 kernels; we exclude 12 of 76.
	if len(res.Excluded) != 12 {
		t.Errorf("excluded %d kernels, want 12: %v", len(res.Excluded), res.Excluded)
	}
	n := 0
	for _, st := range res.Stats {
		n += len(st.Kernels)
	}
	if n != 64 {
		t.Errorf("clustered %d kernels, want 64", n)
	}
	if len(res.Stats) < 2 || len(res.Stats) > 6 {
		t.Errorf("got %d clusters at threshold %.2f, want a handful", len(res.Stats), res.Threshold)
	}

	// The most memory-bound cluster achieves the highest speedup on all
	// three higher-bandwidth machines (the paper's central claim).
	mem := res.MostMemoryBoundCluster()
	for _, st := range res.Stats {
		if st.ID == mem || len(st.Kernels) == 0 {
			continue
		}
		ms := res.Stats[mem]
		if st.SpeedupHBM > ms.SpeedupHBM ||
			st.SpeedupV100 > ms.SpeedupV100 ||
			st.SpeedupMI250X > ms.SpeedupMI250X {
			t.Errorf("cluster %d (mem %.2f) beats the memory-bound cluster %d "+
				"(HBM %.2f/%.2f V100 %.2f/%.2f MI %.2f/%.2f)",
				st.ID, st.MemoryBound, mem,
				st.SpeedupHBM, ms.SpeedupHBM,
				st.SpeedupV100, ms.SpeedupV100,
				st.SpeedupMI250X, ms.SpeedupMI250X)
		}
	}
	// The memory cluster contains the Stream kernels and most of LCALS
	// (paper Fig 7: cluster 2 holds 80-100% of both groups).
	members := map[string]bool{}
	for _, k := range res.Stats[mem].Kernels {
		members[k] = true
	}
	for _, s := range []string{"Stream_ADD", "Stream_COPY", "Stream_MUL", "Stream_TRIAD"} {
		if !members[s] {
			t.Errorf("%s not in the memory-bound cluster", s)
		}
	}
	lcals := 0
	for k := range members {
		if strings.HasPrefix(k, "Lcals_") {
			lcals++
		}
	}
	if lcals < 7 {
		t.Errorf("only %d LCALS kernels in the memory-bound cluster, want most of 11", lcals)
	}
	// Its MI250X speedup is the largest and lands near the paper's 22.6x.
	if ms := res.Stats[mem].SpeedupMI250X; ms < 12 || ms > 40 {
		t.Errorf("memory cluster MI250X speedup = %.1f, want within [12, 40] (paper: 22.6)", ms)
	}
	if r := res.Render(); !strings.Contains(r, "Dendrogram") {
		t.Error("Render missing dendrogram")
	}
}

func TestFig9PaperShapes(t *testing.T) {
	data, err := session.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]Fig9Row{}
	for _, r := range data.Rows {
		rows[r.Kernel] = r
	}
	// TRIAD reference speedups land near the paper's.
	if data.TriadHBM < 1.8 || data.TriadHBM > 3.0 {
		t.Errorf("TRIAD HBM speedup = %.2f, paper ~2.2", data.TriadHBM)
	}
	if data.TriadMI250X < 15 || data.TriadMI250X > 30 {
		t.Errorf("TRIAD MI250X speedup = %.2f, paper ~20", data.TriadMI250X)
	}
	// EDGE3D is the extreme outlier on MI250X (paper: 118.6x, annotated
	// for exceeding 40x).
	edge := rows["Apps_EDGE3D"]
	for name, r := range rows {
		if r.SpeedupMI250X > edge.SpeedupMI250X {
			t.Errorf("%s (%.1fx) exceeds EDGE3D (%.1fx) on MI250X",
				name, r.SpeedupMI250X, edge.SpeedupMI250X)
		}
	}
	if edge.SpeedupMI250X < 40 {
		t.Errorf("EDGE3D MI250X speedup = %.1f, want > 40", edge.SpeedupMI250X)
	}
	// Sec V-B: ADI, ATAX, GEMVER, GESUMMV, MVT, PI_ATOMIC show no
	// speedup on the P9-V100.
	for _, name := range []string{"Polybench_ADI", "Polybench_ATAX",
		"Polybench_GEMVER", "Polybench_MVT", "Basic_PI_ATOMIC"} {
		if r := rows[name]; r.SpeedupV100 > 1.3 {
			t.Errorf("%s V100 speedup = %.2f, paper reports none", name, r.SpeedupV100)
		}
	}
	// Memory-bound kernels gain on HBM; compute-bound ones do not.
	if r := rows["Stream_COPY"]; r.SpeedupHBM < 1.5 {
		t.Errorf("Stream_COPY HBM speedup = %.2f", r.SpeedupHBM)
	}
	if r := rows["Basic_TRAP_INT"]; r.SpeedupHBM > 1.2 {
		t.Errorf("TRAP_INT HBM speedup = %.2f, should be ~1", r.SpeedupHBM)
	}
}

func TestFig10FlopHeavyList(t *testing.T) {
	panels, err := session.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 4 {
		t.Fatalf("%d panels, want 4", len(panels))
	}
	ddr := panels[0]
	heavy := map[string]bool{}
	for _, k := range ddr.FlopHeavyKernels() {
		heavy[k] = true
	}
	// Sec V-D's list: these kernels must be above the diagonal.
	for _, k := range []string{
		"Apps_CONVECTION3DPA", "Apps_DIFFUSION3DPA", "Apps_EDGE3D",
		"Apps_FIR", "Apps_LTIMES", "Apps_LTIMES_NOVIEW", "Apps_MASS3DPA",
		"Apps_VOL3D", "Basic_MAT_MAT_SHARED", "Basic_PI_REDUCE",
		"Basic_TRAP_INT", "Polybench_2MM", "Polybench_3MM", "Polybench_GEMM",
	} {
		if !heavy[k] {
			t.Errorf("%s missing from the FLOP-heavy set", k)
		}
	}
	// Stream kernels are firmly below the diagonal.
	for _, k := range []string{"Stream_TRIAD", "Stream_COPY", "Algorithm_MEMCPY"} {
		if heavy[k] {
			t.Errorf("%s must not be FLOP-heavy", k)
		}
	}
	// Fig 10a vs 10b: HBM raises achieved bandwidth but not FLOPS.
	hbm := panels[1]
	ddrPts := map[string]Fig10Point{}
	for _, p := range ddr.Points {
		ddrPts[p.Kernel] = p
	}
	for _, p := range hbm.Points {
		if p.Kernel != "Stream_TRIAD" {
			continue
		}
		if p.GBs <= ddrPts[p.Kernel].GBs {
			t.Error("TRIAD achieved bandwidth must rise on HBM")
		}
	}
}

func TestSessionProfileRejectsErrors(t *testing.T) {
	if _, err := kernels.New("nope"); err == nil {
		t.Error("sanity: unknown kernel must error")
	}
}

func TestSummaryAllClaimsPass(t *testing.T) {
	out, err := session.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "[PASS]") != 5 {
		t.Errorf("expected 5 passing claims:\n%s", out)
	}
	if strings.Contains(out, "[FAIL]") {
		t.Errorf("failing claims:\n%s", out)
	}
}
