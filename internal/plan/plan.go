// Package plan defines the logical query plan, the builder that turns a
// parsed SELECT statement into a plan tree, and the rule-based optimizer
// (predicate pushdown, sampler placement). Plans are consumed by
// internal/exec.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/sample"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// Node is a logical plan operator.
type Node interface {
	// Schema returns the operator's output schema.
	Schema() storage.Schema
	// Children returns input operators, left to right.
	Children() []Node
	// Explain renders one line of EXPLAIN output (without children).
	Explain() string
}

// Scan reads a base table, optionally applying a pushed-down filter and a
// sampler. If the table carries a trailing sample.WeightColumn (an offline
// materialized sample), the scan consumes it as the row weight and hides
// it from the output schema.
type Scan struct {
	Table     *storage.Table
	TableName string
	// Filter is a predicate over the table schema evaluated during the
	// scan, before weighting (filters commute with sampling).
	Filter expr.Expr
	// Sample, when non-nil, applies the sampler at scan time.
	Sample *sample.Spec
	// Projection, when non-nil, restricts output to the named columns (in
	// the given order). Weight columns are always consumed regardless.
	Projection []string
	// Range, when non-nil, makes the scan read only a window of a row
	// order, in that order, instead of the whole table in storage order.
	// A ranged scan takes no sampler: the order is the draw.
	Range *RowRange

	out storage.Schema
}

// RowRange is the window [Lo, Hi) of a row order: Order[i] is the index of
// the table row read i-th. Online aggregation reads its seeded permutation
// through one, a chunk at a time.
type RowRange struct {
	Order  []int32
	Lo, Hi int
}

// NewScan builds a scan node over table.
func NewScan(t *storage.Table) *Scan {
	s := &Scan{Table: t, TableName: t.Name()}
	s.rebuildSchema()
	return s
}

func (s *Scan) rebuildSchema() {
	src := s.Table.Schema()
	out := make(storage.Schema, 0, len(src))
	for _, def := range src {
		if def.Name == sample.WeightColumn {
			continue
		}
		if s.Projection != nil && !contains(s.Projection, def.Name) {
			continue
		}
		out = append(out, def)
	}
	s.out = out
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// SetProjection restricts the scan's output columns.
func (s *Scan) SetProjection(cols []string) {
	s.Projection = cols
	s.rebuildSchema()
}

// WeightColumnIndex returns the index of the hidden weight column in the
// underlying table, or -1.
func (s *Scan) WeightColumnIndex() int {
	return s.Table.Schema().ColumnIndex(sample.WeightColumn)
}

// Schema implements Node.
func (s *Scan) Schema() storage.Schema { return s.out }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Explain implements Node.
func (s *Scan) Explain() string {
	b := "Scan " + s.TableName
	if s.Sample != nil {
		b += " sample=" + s.Sample.String()
	}
	if s.Filter != nil {
		b += " filter=" + s.Filter.String()
	}
	return b
}

// Filter drops rows whose predicate is not true.
type Filter struct {
	Child Node
	Pred  expr.Expr
}

// Schema implements Node.
func (f *Filter) Schema() storage.Schema { return f.Child.Schema() }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Child} }

// Explain implements Node.
func (f *Filter) Explain() string { return "Filter " + f.Pred.String() }

// Project computes output expressions.
type Project struct {
	Child Node
	Exprs []expr.Expr
	Names []string

	out storage.Schema
}

// NewProject builds a projection; exprs must already be bound to the
// child's schema.
func NewProject(child Node, exprs []expr.Expr, names []string) *Project {
	p := &Project{Child: child, Exprs: exprs, Names: names}
	out := make(storage.Schema, len(exprs))
	for i, e := range exprs {
		out[i] = storage.ColumnDef{Name: names[i], Type: e.Type()}
	}
	p.out = out
	return p
}

// Schema implements Node.
func (p *Project) Schema() storage.Schema { return p.out }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

// Explain implements Node.
func (p *Project) Explain() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Project " + strings.Join(parts, ", ")
}

// Join is an inner equi-join (hash join). LeftKeys/RightKeys are parallel
// key expressions bound to the respective child schemas; Residual is an
// extra predicate over the concatenated schema.
type Join struct {
	Left, Right Node
	LeftKeys    []expr.Expr
	RightKeys   []expr.Expr
	Residual    expr.Expr

	out storage.Schema
}

// NewJoin builds an inner hash join node.
func NewJoin(l, r Node, lk, rk []expr.Expr, residual expr.Expr) *Join {
	j := &Join{Left: l, Right: r, LeftKeys: lk, RightKeys: rk, Residual: residual}
	j.out = append(append(storage.Schema{}, l.Schema()...), r.Schema()...)
	return j
}

// Schema implements Node.
func (j *Join) Schema() storage.Schema { return j.out }

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// Explain implements Node.
func (j *Join) Explain() string {
	parts := make([]string, len(j.LeftKeys))
	for i := range j.LeftKeys {
		parts[i] = j.LeftKeys[i].String() + "=" + j.RightKeys[i].String()
	}
	s := "HashJoin " + strings.Join(parts, " AND ")
	if j.Residual != nil {
		s += " residual=" + j.Residual.String()
	}
	return s
}

// AggSpec describes one aggregate computed by an Aggregate node.
type AggSpec struct {
	Func     sqlparse.AggFunc
	Arg      expr.Expr // bound to child schema; nil for COUNT(*)
	Star     bool
	Distinct bool
	// Param is PERCENTILE's quantile in (0,1).
	Param float64
	Name  string // output column name
}

// OutType returns the aggregate's output column type.
func (a AggSpec) OutType() storage.Type {
	switch a.Func {
	case sqlparse.AggCount:
		return storage.TypeInt64
	case sqlparse.AggAvg:
		return storage.TypeFloat64
	case sqlparse.AggMin, sqlparse.AggMax:
		if a.Arg != nil {
			return a.Arg.Type()
		}
		return storage.TypeFloat64
	default:
		return storage.TypeFloat64
	}
}

// Aggregate groups rows and computes aggregates. Output schema is the
// group columns followed by one column per aggregate.
type Aggregate struct {
	Child      Node
	GroupBy    []expr.Expr
	GroupNames []string
	Aggs       []AggSpec

	out storage.Schema
}

// NewAggregate builds an aggregation node; expressions must be bound to
// the child's schema.
func NewAggregate(child Node, groupBy []expr.Expr, groupNames []string, aggs []AggSpec) *Aggregate {
	a := &Aggregate{Child: child, GroupBy: groupBy, GroupNames: groupNames, Aggs: aggs}
	out := make(storage.Schema, 0, len(groupBy)+len(aggs))
	for i, g := range groupBy {
		out = append(out, storage.ColumnDef{Name: groupNames[i], Type: g.Type()})
	}
	for _, spec := range aggs {
		out = append(out, storage.ColumnDef{Name: spec.Name, Type: spec.OutType()})
	}
	a.out = out
	return a
}

// Schema implements Node.
func (a *Aggregate) Schema() storage.Schema { return a.out }

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Child} }

// Explain implements Node.
func (a *Aggregate) Explain() string {
	var parts []string
	for _, s := range a.Aggs {
		arg := "*"
		if s.Arg != nil {
			arg = s.Arg.String()
		}
		parts = append(parts, fmt.Sprintf("%s(%s)", s.Func, arg))
	}
	s := "HashAggregate " + strings.Join(parts, ", ")
	if len(a.GroupBy) > 0 {
		var gs []string
		for _, g := range a.GroupBy {
			gs = append(gs, g.String())
		}
		s += " group by " + strings.Join(gs, ", ")
	}
	return s
}

// SortKey is one ORDER BY key over the child's output schema.
type SortKey struct {
	Expr expr.Expr
	Desc bool
}

// Sort orders its input.
type Sort struct {
	Child Node
	Keys  []SortKey
}

// Schema implements Node.
func (s *Sort) Schema() storage.Schema { return s.Child.Schema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Child} }

// Explain implements Node.
func (s *Sort) Explain() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		parts[i] = k.Expr.String()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return "Sort " + strings.Join(parts, ", ")
}

// Limit truncates its input to N rows.
type Limit struct {
	Child Node
	N     int
}

// Schema implements Node.
func (l *Limit) Schema() storage.Schema { return l.Child.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Child} }

// Explain implements Node.
func (l *Limit) Explain() string { return fmt.Sprintf("Limit %d", l.N) }

// Explain renders the whole plan tree, one node per line, indented.
func Explain(n Node) string {
	var b strings.Builder
	var rec func(n Node, depth int)
	rec = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Explain())
		b.WriteByte('\n')
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}

// Scans returns every Scan node in the plan, left to right.
func Scans(n Node) []*Scan {
	var out []*Scan
	var rec func(Node)
	rec = func(n Node) {
		if s, ok := n.(*Scan); ok {
			out = append(out, s)
		}
		for _, c := range n.Children() {
			rec(c)
		}
	}
	rec(n)
	return out
}

// FindAggregate returns the (single) Aggregate node of the plan, or nil.
func FindAggregate(n Node) *Aggregate {
	if a, ok := n.(*Aggregate); ok {
		return a
	}
	for _, c := range n.Children() {
		if a := FindAggregate(c); a != nil {
			return a
		}
	}
	return nil
}
