// Package plot renders the paper's figure types — scatter plots with
// roofline ceilings, stacked metric bars, and dendrograms — as
// self-contained SVG documents using only the standard library. The
// experiment harness uses it to emit fig*.svg files alongside the text
// tables.
package plot

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// Canvas accumulates SVG elements on a fixed pixel grid.
type Canvas struct {
	b strings.Builder
}

// NewCanvas returns an empty canvas of the given pixel size.
func NewCanvas(w, h int) *Canvas {
	c := &Canvas{}
	fmt.Fprintf(&c.b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", w, h, w, h)
	fmt.Fprintf(&c.b, `<rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
	return c
}

// Line draws a straight segment one pixel wide.
func (c *Canvas) Line(x1, y1, x2, y2 float64, stroke string) {
	fmt.Fprintf(&c.b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="1.0"/>`+"\n",
		x1, y1, x2, y2, stroke)
}

// DashedLine draws a dashed segment.
func (c *Canvas) DashedLine(x1, y1, x2, y2 float64, stroke string) {
	fmt.Fprintf(&c.b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="1" stroke-dasharray="4,3"/>`+"\n",
		x1, y1, x2, y2, stroke)
}

// Rect draws a filled rectangle.
func (c *Canvas) Rect(x, y, w, h float64, fill string) {
	if w < 0 {
		x, w = x+w, -w
	}
	if h < 0 {
		y, h = y+h, -h
	}
	fmt.Fprintf(&c.b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`+"\n",
		x, y, w, h, fill)
}

// Circle draws a filled circle.
func (c *Canvas) Circle(x, y, r float64, fill string) {
	fmt.Fprintf(&c.b, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s"/>`+"\n", x, y, r, fill)
}

// Text places a label. Anchor is "start", "middle", or "end".
func (c *Canvas) Text(x, y float64, s, anchor string, size int) {
	fmt.Fprintf(&c.b, `<text x="%.1f" y="%.1f" text-anchor="%s" font-family="sans-serif" font-size="%d">%s</text>`+"\n",
		x, y, anchor, size, escape(s))
}

// TextRotated places a label rotated by deg around its anchor point.
func (c *Canvas) TextRotated(x, y float64, s string, deg float64, size int) {
	fmt.Fprintf(&c.b, `<text x="%.1f" y="%.1f" text-anchor="end" font-family="sans-serif" font-size="%d" transform="rotate(%.0f %.1f %.1f)">%s</text>`+"\n",
		x, y, size, deg, x, y, escape(s))
}

// String finalizes and returns the SVG document.
func (c *Canvas) String() string { return c.b.String() + "</svg>\n" }

// WriteSVGFile writes an already-rendered SVG document to path, creating
// parent directories.
func WriteSVGFile(path, svg string) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("plot: %w", err)
		}
	}
	return os.WriteFile(path, []byte(svg), 0o644)
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}

// Palette is the default categorical color cycle.
var Palette = []string{
	"#4363d8", "#e6194B", "#3cb44b", "#f58231", "#911eb4",
	"#42d4f4", "#bfef45", "#f032e6", "#9A6324", "#469990",
}

// axis maps data coordinates onto a pixel interval, optionally
// logarithmically.
type axis struct {
	lo, hi float64
	p0, p1 float64
	log    bool
}

func (a axis) pos(v float64) float64 {
	lo, hi, x := a.lo, a.hi, v
	if a.log {
		lo, hi, x = math.Log10(lo), math.Log10(hi), math.Log10(v)
	}
	f := (x - lo) / (hi - lo)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return a.p0 + f*(a.p1-a.p0)
}

// ticks returns tick values for the axis: decades when logarithmic, five
// even steps otherwise.
func (a axis) ticks() []float64 {
	if a.log {
		var out []float64
		for d := math.Floor(math.Log10(a.lo)); d <= math.Ceil(math.Log10(a.hi)); d++ {
			v := math.Pow(10, d)
			if v >= a.lo*0.999 && v <= a.hi*1.001 {
				out = append(out, v)
			}
		}
		return out
	}
	out := make([]float64, 0, 6)
	for i := 0; i <= 5; i++ {
		out = append(out, a.lo+(a.hi-a.lo)*float64(i)/5)
	}
	return out
}

func tickLabel(v float64, log bool) string {
	if log {
		return fmt.Sprintf("1e%d", int(math.Round(math.Log10(v))))
	}
	return fmt.Sprintf("%.3g", v)
}
