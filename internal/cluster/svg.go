package cluster

import (
	"math"
	"strconv"

	"rajaperf/internal/plot"
)

// SVG renders the merge tree as a horizontal dendrogram (leaves on the
// left, merge distance growing to the right), with the cut threshold drawn
// as a dashed vertical line — the Fig 6 rendering.
func (l *Linkage) SVG(threshold float64) string {
	const rowH = 13
	labelW := 10
	for _, lab := range l.labels {
		if len(lab) > labelW {
			labelW = len(lab)
		}
	}
	ml := float64(labelW)*6.2 + 10
	w := int(ml) + 420
	h := l.N*rowH + 60

	maxD := threshold
	for _, m := range l.Merges {
		maxD = math.Max(maxD, m.Distance)
	}
	if maxD == 0 {
		maxD = 1
	}
	x := func(d float64) float64 { return ml + d/maxD*380 }

	c := plot.NewCanvas(w, h)
	c.Text(float64(w)/2, 18, "Ward dendrogram", "middle", 13)

	// Leaf order: depth-first traversal of the final merge keeps joined
	// leaves adjacent.
	order := make([]int, 0, l.N)
	var walk func(id int)
	walk = func(id int) {
		if id < l.N {
			order = append(order, id)
			return
		}
		m := l.Merges[id-l.N]
		walk(m.A)
		walk(m.B)
	}
	if len(l.Merges) > 0 {
		walk(l.N + len(l.Merges) - 1)
	} else {
		for i := 0; i < l.N; i++ {
			order = append(order, i)
		}
	}
	rowOf := make([]float64, l.N)
	for row, leaf := range order {
		y := float64(34 + row*rowH)
		rowOf[leaf] = y
		c.Text(ml-6, y+4, l.labels[leaf], "end", 9)
	}

	// Node positions: leaves at distance 0; each merge at its distance,
	// vertically centered between its children.
	type pos struct{ x, y float64 }
	nodePos := make([]pos, l.N+len(l.Merges))
	for i := 0; i < l.N; i++ {
		nodePos[i] = pos{x(0), rowOf[i]}
	}
	for i, m := range l.Merges {
		a, b := nodePos[m.A], nodePos[m.B]
		mx := x(m.Distance)
		my := (a.y + b.y) / 2
		// Elbow: horizontal from each child to the merge distance,
		// then a vertical joining bar.
		c.Line(a.x, a.y, mx, a.y, "#333")
		c.Line(b.x, b.y, mx, b.y, "#333")
		c.Line(mx, a.y, mx, b.y, "#333")
		nodePos[l.N+i] = pos{mx, my}
	}

	if threshold > 0 {
		tx := x(threshold)
		c.DashedLine(tx, 28, tx, float64(h-24), "#e6194B")
		c.Text(tx, float64(h-10), "cut", "middle", 10)
	}
	// Distance axis along the bottom.
	c.Line(ml, float64(h-24), ml+380, float64(h-24), "#000")
	for i := 0; i <= 4; i++ {
		d := maxD * float64(i) / 4
		c.Line(x(d), float64(h-24), x(d), float64(h-20), "#000")
		c.Text(x(d), float64(h-28), trimFloat(d), "middle", 9)
	}
	return c.String()
}

func trimFloat(v float64) string {
	return strconv.FormatFloat(math.Round(v*100)/100, 'g', -1, 64)
}
