package analysis

import (
	"fmt"
	"path/filepath"

	"rajaperf/internal/kernels"
	"rajaperf/internal/machine"
	"rajaperf/internal/plot"
)

// tmaStackColors matches the category order of the top-down tuple.
var tmaStackColors = []struct{ label, color string }{
	{"frontend bound", "#f58231"},
	{"bad speculation", "#911eb4"},
	{"retiring", "#3cb44b"},
	{"core bound", "#4363d8"},
	{"memory bound", "#e6194B"},
}

// WriteFigures renders SVG versions of the paper's figures into dir:
// fig3/fig4 top-down stacked bars, fig5 instruction rooflines (one file
// per cache level), and fig10 bandwidth-versus-FLOPS panels (one file per
// machine). It returns the written paths.
func (s *Session) WriteFigures(dir string) ([]string, error) {
	var written []string
	save := func(name, svg string) error {
		path := filepath.Join(dir, name)
		if err := plot.WriteSVGFile(path, svg); err != nil {
			return err
		}
		written = append(written, path)
		return nil
	}

	// Fig 3 / Fig 4: top-down stacked bars per CPU machine.
	for i, m := range []*machine.Machine{machine.SPRDDR(), machine.SPRHBM()} {
		rows, err := s.Topdown(m)
		if err != nil {
			return nil, err
		}
		bars := plot.StackedBars{
			Title:  fmt.Sprintf("Top-down metrics on %s", m.Shorthand),
			YLabel: "fraction of pipeline slots",
		}
		stacks := make([]plot.BarStack, len(tmaStackColors))
		for si, sc := range tmaStackColors {
			stacks[si] = plot.BarStack{Label: sc.label, Color: sc.color}
		}
		for _, r := range rows {
			bars.Categories = append(bars.Categories, r.Kernel)
			v := r.Metrics.Vector()
			for si := range stacks {
				stacks[si].Values = append(stacks[si].Values, v[si])
			}
		}
		bars.Stacks = stacks
		if err := save(fmt.Sprintf("fig%d_topdown_%s.svg", 3+i, m.Shorthand), bars.Render()); err != nil {
			return nil, err
		}
	}

	// Fig 5: instruction roofline per cache level on P9-V100.
	roof, err := s.Roofline(machine.P9V100())
	if err != nil {
		return nil, err
	}
	for li, level := range []string{"L1", "L2", "HBM"} {
		sc := plot.Scatter{
			Title:  fmt.Sprintf("Instruction roofline (%s), %s", level, roof.Machine.Shorthand),
			XLabel: "warp instructions per transaction",
			YLabel: "warp GIPS",
			LogX:   true, LogY: true,
			Ceilings: []plot.CeilingLine{{
				Name:  "roofline",
				Slope: roof.Ceilings[level],
				Flat:  roof.MaxGIPS,
			}},
		}
		byGroup := map[kernels.Group]*plot.Series{}
		for _, g := range kernels.Groups() {
			byGroup[g] = &plot.Series{Name: g.String()}
		}
		for _, r := range roof.Rows {
			p := r.Points[li]
			byGroup[r.Group].Points = append(byGroup[r.Group].Points,
				plot.Point{X: p.Intensity, Y: p.GIPS})
		}
		for _, g := range kernels.Groups() {
			if len(byGroup[g].Points) > 0 {
				sc.Series = append(sc.Series, *byGroup[g])
			}
		}
		if err := save(fmt.Sprintf("fig5_roofline_%s.svg", level), sc.Render()); err != nil {
			return nil, err
		}
	}

	// Fig 6: dendrogram of the Ward clustering.
	cres, err := s.Cluster(0)
	if err != nil {
		return nil, err
	}
	if err := save("fig6_dendrogram.svg", cres.Linkage.SVG(cres.Threshold)); err != nil {
		return nil, err
	}

	// Fig 10: achieved bandwidth versus FLOPS per machine.
	panels, err := s.Fig10()
	if err != nil {
		return nil, err
	}
	for _, panel := range panels {
		sc := plot.Scatter{
			Title:    fmt.Sprintf("Memory bandwidth vs FLOPS, %s", panel.Machine.Shorthand),
			XLabel:   "achieved GB/s",
			YLabel:   "achieved GFLOPS",
			LogX:     true,
			LogY:     true,
			Diagonal: true,
		}
		byGroup := map[kernels.Group]*plot.Series{}
		for _, g := range kernels.Groups() {
			byGroup[g] = &plot.Series{Name: g.String()}
		}
		for _, p := range panel.Points {
			if g, ok := kernelGroup(p.Kernel); ok {
				byGroup[g].Points = append(byGroup[g].Points,
					plot.Point{X: p.GBs, Y: p.GFLOPS})
			}
		}
		for _, g := range kernels.Groups() {
			if len(byGroup[g].Points) > 0 {
				sc.Series = append(sc.Series, *byGroup[g])
			}
		}
		if err := save(fmt.Sprintf("fig10_bwflops_%s.svg", panel.Machine.Shorthand), sc.Render()); err != nil {
			return nil, err
		}
	}
	return written, nil
}
