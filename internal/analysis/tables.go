package analysis

import (
	"fmt"
	"sort"
	"strings"

	"rajaperf/internal/gpusim"
	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
	"rajaperf/internal/suite"
	"rajaperf/internal/tma"
)

// Table1 renders the kernel inventory of Table I: every kernel with its
// group, implemented variants, feature annotations, and complexity.
func Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %-10s %-44s %-30s %s\n",
		"Kernel", "Group", "Variants", "Features", "Complexity")
	for _, name := range kernels.Names() {
		k, err := kernels.New(name)
		if err != nil {
			continue
		}
		in := k.Info()
		vs := make([]string, 0, len(in.Variants))
		for _, v := range in.Variants {
			vs = append(vs, v.String())
		}
		fs := make([]string, 0, len(in.Features))
		for _, f := range in.Features {
			fs = append(fs, f.String())
		}
		fmt.Fprintf(&b, "%-34s %-10s %-44s %-30s %s\n",
			in.FullName(), in.Group, shortJoin(vs), strings.Join(fs, ","),
			in.Complexity)
	}
	fmt.Fprintf(&b, "\nTotal kernels: %d\n", kernels.Count())
	return b.String()
}

func shortJoin(vs []string) string {
	// Compress the variant list to back-end flags, as Table I does.
	has := map[string]bool{}
	for _, v := range vs {
		has[v] = true
	}
	cols := []struct{ label, base, raja string }{
		{"Seq", "Base_Seq", "RAJA_Seq"},
		{"OMP", "Base_OpenMP", "RAJA_OpenMP"},
		{"GPU", "Base_GPU", "RAJA_GPU"},
	}
	out := make([]string, 0, 3)
	for _, c := range cols {
		mark := ""
		if has[c.base] {
			mark += "B"
		}
		if has[c.raja] {
			mark += "R"
		}
		if mark != "" {
			out = append(out, c.label+":"+mark)
		}
	}
	return strings.Join(out, " ")
}

// Table2Row is one machine row of Table II with modeled achieved rates.
type Table2Row struct {
	Machine          *machine.Machine
	AchievedTFLOPS   float64 // Basic_MAT_MAT_SHARED probe
	AchievedBWTBs    float64 // Stream_TRIAD probe
	FlopsPctExpected float64
	BWPctExpected    float64
}

// Table2 characterizes the four systems with the paper's probe kernels:
// achieved FLOPS via Basic_MAT_MAT_SHARED and achieved bandwidth via
// Stream_TRIAD, both evaluated through the hardware models.
func (s *Session) Table2() ([]Table2Row, error) {
	rows := make([]Table2Row, 0, 4)
	for _, m := range machine.Paper() {
		p, err := s.Profile(m)
		if err != nil {
			return nil, err
		}
		row := Table2Row{Machine: m}
		if r := p.Find("Basic_MAT_MAT_SHARED"); r != nil {
			row.AchievedTFLOPS = r.Metrics["GFLOPS"] / 1000
		}
		if r := p.Find("Stream_TRIAD"); r != nil {
			row.AchievedBWTBs = r.Metrics["GB/s"] / 1000
		}
		row.FlopsPctExpected = 100 * row.AchievedTFLOPS / m.PeakTFLOPSNode
		row.BWPctExpected = 100 * row.AchievedBWTBs / m.PeakBWTBsNode
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable2 formats Table II.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-22s %6s %7s %9s %7s | %6s %7s %9s %7s\n",
		"Shorthand", "Architecture", "units", "TF/unit", "TF(probe)", "%exp",
		"TB/s/u", "TB/s", "TB(probe)", "%exp")
	for _, r := range rows {
		m := r.Machine
		fmt.Fprintf(&b, "%-12s %-22s %6d %7.1f %9.2f %7.1f | %6.1f %7.1f %9.2f %7.1f\n",
			m.Shorthand, m.Arch, m.UnitsPerNode,
			m.PeakTFLOPSUnit, r.AchievedTFLOPS, r.FlopsPctExpected,
			m.PeakBWTBsUnit, m.PeakBWTBsNode, r.AchievedBWTBs, r.BWPctExpected)
	}
	return b.String()
}

// Table3 renders the run parameters of Table III: variant, tuning, rank
// count, and per-process size for each system at the given node size.
func Table3(sizePerNode int) string {
	if sizePerNode <= 0 {
		sizePerNode = suite.DefaultSizePerNode
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-12s %-10s %6s %14s %14s\n",
		"System", "Variant", "Tuning", "Ranks", "Size/Process", "Size/Node")
	for _, m := range machine.Paper() {
		variant := "RAJA_Seq"
		tuning := "default"
		if m.Kind == machine.GPU {
			variant = "RAJA_" + string(m.Backend)
			tuning = m.Tuning
		}
		fmt.Fprintf(&b, "%-12s %-12s %-10s %6d %14d %14d\n",
			m.Shorthand, variant, tuning, m.Ranks, sizePerNode/m.Ranks, sizePerNode)
	}
	return b.String()
}

// Table4 renders the Nsight-Compute metric set used for the instruction
// roofline (Table IV).
func Table4() string {
	var b strings.Builder
	b.WriteString("Instruction roofline metrics (NVIDIA Nsight Compute):\n")
	for _, m := range gpusim.MetricNames() {
		fmt.Fprintf(&b, "  %s\n", m)
	}
	return b.String()
}

// Fig1Row is one kernel's analytic metrics normalized by problem size.
type Fig1Row struct {
	Kernel        string
	BytesReadPer  float64
	BytesWritePer float64
	FlopsPer      float64
	FlopsPerByte  float64
}

// Fig1 computes the analytic metrics of Fig 1 for every kernel at a
// per-rank problem size of 100,000, normalized per problem-size unit.
func Fig1() []Fig1Row {
	const size = 100_000
	rows := make([]Fig1Row, 0, kernels.Count())
	for _, name := range kernels.Names() {
		k, err := kernels.New(name)
		if err != nil {
			continue
		}
		k.SetUp(kernels.RunParams{Size: size})
		m := k.Metrics()
		n := float64(size)
		rows = append(rows, Fig1Row{
			Kernel:        name,
			BytesReadPer:  m.BytesRead / n,
			BytesWritePer: m.BytesWritten / n,
			FlopsPer:      m.Flops / n,
			FlopsPerByte:  m.FlopsPerByte(),
		})
		k.TearDown()
	}
	return rows
}

// RenderFig1 formats the Fig 1 analytic-metrics table.
func RenderFig1(rows []Fig1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %12s %12s %12s %12s\n",
		"Kernel", "BytesRead/it", "BytesWrit/it", "Flops/it", "Flops/Byte")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-34s %12.2f %12.2f %12.2f %12.4f\n",
			r.Kernel, r.BytesReadPer, r.BytesWritePer, r.FlopsPer, r.FlopsPerByte)
	}
	return b.String()
}

// Fig2 renders the TMA hierarchy diagram of Fig 2 as an indented tree.
func Fig2() string {
	var b strings.Builder
	var render func(n tma.Node, depth int)
	render = func(n tma.Node, depth int) {
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat("  ", depth), n.Name)
		for _, c := range n.Children {
			render(c, depth+1)
		}
	}
	render(tma.Hierarchy(), 0)
	return b.String()
}

// sortedKeys returns map keys sorted.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
