package plot

import (
	"fmt"
	"math"
)

// Point is one scatter marker.
type Point struct {
	X, Y float64
}

// Series is a named point set, colored by its index in the palette.
type Series struct {
	Name   string
	Points []Point
}

// CeilingLine is a reference line for roofline plots: y = min(Slope*x, Flat).
type CeilingLine struct {
	Name  string
	Slope float64 // diagonal: y = Slope * x (0 = none)
	Flat  float64 // horizontal roof (0 = none)
}

// Scatter describes a scatter plot with optional log axes, reference
// ceilings, and a y=x diagonal (Fig 5 rooflines, Fig 10 panels).
type Scatter struct {
	Title, XLabel, YLabel string
	LogX, LogY            bool
	Diagonal              bool // draw y = x (Fig 10's dashed diagonal)
	Ceilings              []CeilingLine
	Series                []Series
}

// Render draws the scatter as an SVG document, 720x520 pixels.
func (p *Scatter) Render() string {
	const w, h = 720, 520
	c := NewCanvas(w, h)
	const ml, mr, mt, mb = 70, 160, 40, 55
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range p.Series {
		for _, pt := range s.Points {
			if p.LogX && pt.X <= 0 || p.LogY && pt.Y <= 0 {
				continue
			}
			xmin, xmax = math.Min(xmin, pt.X), math.Max(xmax, pt.X)
			ymin, ymax = math.Min(ymin, pt.Y), math.Max(ymax, pt.Y)
		}
	}
	for _, cl := range p.Ceilings {
		if cl.Flat > 0 {
			ymax = math.Max(ymax, cl.Flat)
		}
	}
	if math.IsInf(xmin, 1) {
		xmin, xmax, ymin, ymax = 0.1, 1, 0.1, 1
	}
	xmin, xmax = pad(xmin, xmax, p.LogX)
	ymin, ymax = pad(ymin, ymax, p.LogY)
	ax := axis{lo: xmin, hi: xmax, p0: ml, p1: float64(w - mr), log: p.LogX}
	ay := axis{lo: ymin, hi: ymax, p0: float64(h - mb), p1: mt, log: p.LogY}

	c.Text(float64(w)/2, 22, p.Title, "middle", 14)
	frame(c, ax, ay, p.XLabel, p.YLabel)

	if p.Diagonal {
		drawCurve(c, ax, ay, func(x float64) float64 { return x }, "#888888")
	}
	for _, cl := range p.Ceilings {
		cl := cl
		if cl.Slope > 0 && cl.Flat > 0 {
			drawCurve(c, ax, ay, func(x float64) float64 {
				return math.Min(cl.Slope*x, cl.Flat)
			}, "#444444")
		} else if cl.Flat > 0 {
			y := ay.pos(cl.Flat)
			c.DashedLine(ax.p0, y, ax.p1, y, "#444444")
		} else if cl.Slope > 0 {
			drawCurve(c, ax, ay, func(x float64) float64 { return cl.Slope * x }, "#444444")
		}
		if cl.Name != "" {
			c.Text(ax.p1+4, ay.pos(cl.Flat)+4, cl.Name, "start", 10)
		}
	}

	for i, s := range p.Series {
		color := Palette[i%len(Palette)]
		for _, pt := range s.Points {
			if p.LogX && pt.X <= 0 || p.LogY && pt.Y <= 0 {
				continue
			}
			c.Circle(ax.pos(pt.X), ay.pos(pt.Y), 3.2, color)
		}
		// Legend column on the right margin.
		ly := float64(mt + 14*i)
		c.Circle(float64(w-mr)+14, ly, 4, color)
		c.Text(float64(w-mr)+22, ly+4, s.Name, "start", 11)
	}
	return c.String()
}

func pad(lo, hi float64, log bool) (float64, float64) {
	if log {
		return lo / 2, hi * 2
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	l := lo - 0.05*span
	if lo >= 0 && l < 0 {
		l = 0
	}
	return l, hi + 0.05*span
}

func frame(c *Canvas, ax, ay axis, xlabel, ylabel string) {
	c.Line(ax.p0, ay.p0, ax.p1, ay.p0, "#000000") // x axis
	c.Line(ax.p0, ay.p0, ax.p0, ay.p1, "#000000") // y axis
	for _, t := range ax.ticks() {
		x := ax.pos(t)
		c.Line(x, ay.p0, x, ay.p0+4, "#000000")
		c.Text(x, ay.p0+16, tickLabel(t, ax.log), "middle", 10)
	}
	for _, t := range ay.ticks() {
		y := ay.pos(t)
		c.Line(ax.p0-4, y, ax.p0, y, "#000000")
		c.Text(ax.p0-6, y+3, tickLabel(t, ay.log), "end", 10)
	}
	c.Text((ax.p0+ax.p1)/2, ay.p0+34, xlabel, "middle", 12)
	c.TextRotated(ax.p0-46, (ay.p0+ay.p1)/2, ylabel, -90, 12)
}

func drawCurve(c *Canvas, ax, ay axis, f func(float64) float64, color string) {
	const steps = 64
	for i := 0; i < steps; i++ {
		x1 := sample(ax, float64(i)/steps)
		x2 := sample(ax, float64(i+1)/steps)
		y1, y2 := f(x1), f(x2)
		if y1 < ay.lo && y2 < ay.lo || y1 > ay.hi && y2 > ay.hi {
			continue
		}
		c.DashedLine(ax.pos(x1), ay.pos(y1), ax.pos(x2), ay.pos(y2), color)
	}
}

func sample(a axis, f float64) float64 {
	if a.log {
		return math.Pow(10, math.Log10(a.lo)+f*(math.Log10(a.hi)-math.Log10(a.lo)))
	}
	return a.lo + f*(a.hi-a.lo)
}

// StackedBars describes one stacked horizontal-category bar chart: one bar
// per category, each split into the named stacks (the Fig 3/4 top-down
// charts: one bar per kernel, stacked by TMA category).
type StackedBars struct {
	Title      string
	Categories []string
	Stacks     []BarStack
	YLabel     string
}

// BarStack is one layer across all categories.
type BarStack struct {
	Label  string
	Color  string
	Values []float64 // one per category
}

// Render draws the chart as an SVG document, 460 pixels high and 14
// pixels wider per category.
func (p *StackedBars) Render() string {
	const h = 460
	w := 40 + 14*len(p.Categories) + 170
	c := NewCanvas(w, h)
	const ml, mt = 60, 40
	mb := 150
	plotW := float64(w - ml - 180)
	plotH := float64(h - mt - mb)

	// Total height per category normalizes the stack.
	maxTotal := 0.0
	for i := range p.Categories {
		t := 0.0
		for _, st := range p.Stacks {
			t += st.Values[i]
		}
		maxTotal = math.Max(maxTotal, t)
	}
	if maxTotal == 0 {
		maxTotal = 1
	}

	c.Text(float64(w)/2, 22, p.Title, "middle", 14)
	c.Line(float64(ml), mt+plotH, float64(ml)+plotW, mt+plotH, "#000")
	c.Line(float64(ml), mt+plotH, float64(ml), mt, "#000")
	for i := 0; i <= 5; i++ {
		v := maxTotal * float64(i) / 5
		y := mt + plotH*(1-v/maxTotal)
		c.Line(float64(ml)-4, y, float64(ml), y, "#000")
		c.Text(float64(ml)-6, y+3, fmt.Sprintf("%.2g", v), "end", 10)
	}
	c.TextRotated(float64(ml)-40, mt+plotH/2, p.YLabel, -90, 12)

	barW := plotW / float64(len(p.Categories))
	for i, cat := range p.Categories {
		x := float64(ml) + barW*float64(i)
		y := mt + plotH
		for si, st := range p.Stacks {
			color := st.Color
			if color == "" {
				color = Palette[si%len(Palette)]
			}
			hgt := plotH * st.Values[i] / maxTotal
			c.Rect(x+1, y-hgt, barW-2, hgt, color)
			y -= hgt
		}
		c.TextRotated(x+barW/2+3, mt+plotH+8, cat, -60, 8)
	}
	for si, st := range p.Stacks {
		color := st.Color
		if color == "" {
			color = Palette[si%len(Palette)]
		}
		ly := float64(mt + 16*si)
		c.Rect(float64(w)-165, ly-8, 10, 10, color)
		c.Text(float64(w)-150, ly, st.Label, "start", 11)
	}
	return c.String()
}
