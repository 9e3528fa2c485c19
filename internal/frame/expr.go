package frame

// Predicates of the query engine. A Where is a conjunction of leaves —
// MetaEq, NodeEq, MetricCmp and HasMetric — each optionally under Not.
// Building one allocates only its nodes; nothing is evaluated until a
// Query executor runs it. Every leaf has a scope — profile, node, or
// row — that Not keeps, and the engine pushes each conjunct down to the
// cheapest scan level its scope allows: profile-scope conjuncts are
// decided once per profile and skip whole contiguous row ranges,
// node-scope conjuncts once per distinct node id, and row-scope
// conjuncts (the metric leaves) run as vectorized kernels over the
// column validity bitmaps.

import (
	"fmt"
	"strings"
)

// CmpOp is a comparison operator of a metric predicate.
type CmpOp uint8

const (
	CmpLt CmpOp = iota // <
	CmpLe              // <=
	CmpGt              // >
	CmpGe              // >=
	CmpEq              // ==
	CmpNe              // !=
)

func (op CmpOp) String() string {
	switch op {
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	case CmpEq:
		return "=="
	case CmpNe:
		return "!="
	}
	return "?"
}

func (op CmpOp) eval(v, x float64) bool {
	switch op {
	case CmpLt:
		return v < x
	case CmpLe:
		return v <= x
	case CmpGt:
		return v > x
	case CmpGe:
		return v >= x
	case CmpEq:
		return v == x
	case CmpNe:
		return v != x
	}
	return false
}

// predScope orders predicate scopes from cheapest to most expensive.
type predScope uint8

const (
	scopeProfile predScope = iota // decided by profile metadata alone
	scopeNode                     // decided by the node name alone
	scopeRow                      // needs row data (metric cells)
)

// Pred is one conjunct of a query: a leaf predicate over frame rows,
// possibly negated.
type Pred interface {
	// scope reports the scan level the predicate is decided at.
	scope() predScope
	// cacheKey appends a canonical spelling to sb.
	cacheKey(sb *strings.Builder)
}

type notPred struct{ p Pred }
type metaEqPred struct{ key, val string }
type nodeEqPred struct{ name string }
type metricCmpPred struct {
	metric string
	op     CmpOp
	x      float64
}
type hasMetricPred struct{ metric string }

// Not negates p: it is true exactly for the rows p is false for.
func Not(p Pred) Pred { return &notPred{p: p} }

// MetaEq is true for rows of profiles whose stringified metadata value
// of key equals val (profiles lacking the key stringify as MissingKey).
func MetaEq(key, val string) Pred { return &metaEqPred{key: key, val: val} }

// NodeEq is true for rows whose node name equals name.
func NodeEq(name string) Pred { return &nodeEqPred{name: name} }

// MetricCmp is true for rows that carry metric and whose value compares
// true against x; rows lacking the metric are false. Not is plain
// negation, so Not(MetricCmp(...)) selects the rows lacking the metric
// too; conjoin HasMetric(metric) to drop them.
func MetricCmp(metric string, op CmpOp, x float64) Pred {
	return &metricCmpPred{metric: metric, op: op, x: x}
}

// HasMetric is true for rows that carry a value of metric.
func HasMetric(metric string) Pred { return &hasMetricPred{metric: metric} }

func (p *notPred) scope() predScope       { return p.p.scope() }
func (p *metaEqPred) scope() predScope    { return scopeProfile }
func (p *nodeEqPred) scope() predScope    { return scopeNode }
func (p *metricCmpPred) scope() predScope { return scopeRow }
func (p *hasMetricPred) scope() predScope { return scopeRow }

func (p *notPred) cacheKey(sb *strings.Builder) {
	sb.WriteString("not(")
	p.p.cacheKey(sb)
	sb.WriteByte(')')
}

func (p *metaEqPred) cacheKey(sb *strings.Builder) {
	fmt.Fprintf(sb, "meta(%q==%q)", p.key, p.val)
}

func (p *nodeEqPred) cacheKey(sb *strings.Builder) {
	fmt.Fprintf(sb, "node(==%q)", p.name)
}

func (p *metricCmpPred) cacheKey(sb *strings.Builder) {
	fmt.Fprintf(sb, "metric(%q%s%x)", p.metric, p.op, p.x)
}

func (p *hasMetricPred) cacheKey(sb *strings.Builder) {
	fmt.Fprintf(sb, "has(%q)", p.metric)
}

// evalProfile decides a profile-scope predicate for profile prof.
func evalProfile(p Pred, f *Frame, prof int32) bool {
	switch p := p.(type) {
	case *notPred:
		return !evalProfile(p.p, f, prof)
	case *metaEqPred:
		return f.MetaString(prof, p.key) == p.val
	}
	panic(fmt.Sprintf("frame: predicate %T is not profile-scope", p))
}

// evalNode decides a node-scope predicate for node id (id < 0 means a
// row with no node; NodeEq is false for it).
func evalNode(p Pred, f *Frame, id int32) bool {
	switch p := p.(type) {
	case *notPred:
		return !evalNode(p.p, f, id)
	case *nodeEqPred:
		return id >= 0 && f.nodes.Name(id) == p.name
	}
	panic(fmt.Sprintf("frame: predicate %T is not node-scope", p))
}
