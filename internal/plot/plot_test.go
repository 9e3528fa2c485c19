package plot

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCanvasPrimitives(t *testing.T) {
	c := NewCanvas(100, 80)
	c.Line(0, 0, 100, 80, "#000")
	c.DashedLine(0, 80, 100, 0, "#333")
	c.Rect(10, 10, 20, 20, "#f00")
	c.Rect(30, 30, -10, -10, "#0f0") // negative extents normalize
	c.Circle(50, 40, 5, "#00f")
	c.Text(50, 40, "a<b&c", "middle", 10)
	c.TextRotated(10, 70, "rot", -90, 8)
	out := c.String()
	for _, frag := range []string{"<svg", "</svg>", "<line", "<rect", "<circle",
		"a&lt;b&amp;c", `rotate(-90`, `stroke-dasharray`} {
		if !strings.Contains(out, frag) {
			t.Errorf("SVG missing %q", frag)
		}
	}
	if strings.Contains(out, `width="-`) {
		t.Error("negative rect width leaked into SVG")
	}
}

func TestCanvasWriteFile(t *testing.T) {
	dir := t.TempDir()
	c := NewCanvas(10, 10)
	path := filepath.Join(dir, "sub", "fig.svg")
	if err := WriteSVGFile(path, c.String()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Error("file does not start with <svg")
	}
}

func TestScatterRender(t *testing.T) {
	p := Scatter{
		Title: "roofline", XLabel: "intensity", YLabel: "GIPS",
		LogX: true, LogY: true,
		Ceilings: []CeilingLine{{Name: "roof", Slope: 437.5, Flat: 489.6}},
		Series: []Series{
			{Name: "Stream", Points: []Point{{X: 0.1, Y: 30}, {X: 0.2, Y: 60}}},
			{Name: "Apps", Points: []Point{{X: 5, Y: 400}}},
		},
	}
	out := p.Render()
	for _, frag := range []string{"roofline", "Stream", "Apps", "intensity", "GIPS", "1e"} {
		if !strings.Contains(out, frag) {
			t.Errorf("scatter missing %q", frag)
		}
	}
	// Nonpositive points must be dropped on log axes, not crash.
	p.Series[0].Points = append(p.Series[0].Points, Point{X: 0, Y: -1})
	if out := p.Render(); !strings.Contains(out, "</svg>") {
		t.Error("render with nonpositive log point failed")
	}
}

func TestScatterDiagonalAndEmpty(t *testing.T) {
	p := Scatter{Title: "empty", Diagonal: true}
	if out := p.Render(); !strings.Contains(out, "</svg>") {
		t.Error("empty scatter must still render")
	}
}

func TestStackedBarsRender(t *testing.T) {
	p := StackedBars{
		Title:      "topdown",
		YLabel:     "% slots",
		Categories: []string{"TRIAD", "DAXPY", "GEMM"},
		Stacks: []BarStack{
			{Label: "memory", Values: []float64{0.9, 0.85, 0.1}},
			{Label: "core", Values: []float64{0.05, 0.1, 0.8}},
			{Label: "retiring", Values: []float64{0.05, 0.05, 0.1}},
		},
	}
	out := p.Render()
	for _, frag := range []string{"topdown", "TRIAD", "GEMM", "memory", "retiring"} {
		if !strings.Contains(out, frag) {
			t.Errorf("bars missing %q", frag)
		}
	}
	// Stacks normalize: total bar heights must not exceed the plot area,
	// i.e. no rect with absurd height appears.
	if strings.Contains(out, `height="-`) {
		t.Error("negative bar height")
	}
}

func TestAxisTicks(t *testing.T) {
	lin := axis{lo: 0, hi: 10, p0: 0, p1: 100}
	if got := len(lin.ticks()); got != 6 {
		t.Errorf("linear ticks = %d, want 6", got)
	}
	log := axis{lo: 0.1, hi: 1000, p0: 0, p1: 100, log: true}
	ticks := log.ticks()
	if len(ticks) != 5 { // 0.1, 1, 10, 100, 1000
		t.Errorf("log ticks = %v", ticks)
	}
	if tickLabel(100, true) != "1e2" {
		t.Errorf("log tick label = %s", tickLabel(100, true))
	}
	// pos clamps outside the domain.
	if p := lin.pos(-5); p != 0 {
		t.Errorf("clamped pos = %v", p)
	}
	if p := lin.pos(50); p != 100 {
		t.Errorf("clamped pos = %v", p)
	}
}
