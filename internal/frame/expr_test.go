package frame

import (
	"slices"
	"testing"
)

// TestNotIsPlainNegation pins how Not treats rows that lack a metric: it
// is plain negation, so Not(MetricCmp) selects them, and conjoining
// HasMetric drops them. Row 0 carries time 2; row 1 carries no time.
func TestNotIsPlainNegation(t *testing.T) {
	b := NewBuilder()
	b.StartProfile(map[string]any{"machine": "m0"})
	b.AddRow([]string{"suite", "A"}, map[string]float64{"time": 2})
	b.AddRow([]string{"suite", "B"}, map[string]float64{"flops": 1})
	f := b.Finish()

	cases := []struct {
		name  string
		preds []Pred
		want  []int32
	}{
		{"time>5", []Pred{MetricCmp("time", CmpGt, 5)}, nil},
		{"not(time>5)", []Pred{Not(MetricCmp("time", CmpGt, 5))}, []int32{0, 1}},
		{"not(time>1)", []Pred{Not(MetricCmp("time", CmpGt, 1))}, []int32{1}},
		{"has(time) and not(time>5)", []Pred{HasMetric("time"), Not(MetricCmp("time", CmpGt, 5))}, []int32{0}},
		{"has(time) and not(time>1)", []Pred{HasMetric("time"), Not(MetricCmp("time", CmpGt, 1))}, nil},
		{"not(has(time))", []Pred{Not(HasMetric("time"))}, []int32{1}},
		{"not(not(time>1))", []Pred{Not(Not(MetricCmp("time", CmpGt, 1)))}, []int32{0}},
	}
	e := NewEngine(16)
	for _, c := range cases {
		for _, base := range [][]int32{nil, {0, 1}, {1}} {
			want := c.want
			if base != nil {
				want = slices.DeleteFunc(slices.Clone(c.want), func(r int32) bool {
					return !slices.Contains(base, r)
				})
			}
			if got := e.Query(f, base).Where(c.preds...).Rows(); !slices.Equal(got, want) {
				t.Errorf("%s over base %v: rows %v, want %v", c.name, base, got, want)
			}
		}
	}
}
