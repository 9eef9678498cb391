package sqlparse

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/expr"
	"repro/internal/sample"
	"repro/internal/storage"
)

// AggFunc names an aggregate function.
type AggFunc string

// Supported aggregate functions.
const (
	AggSum        AggFunc = "SUM"
	AggCount      AggFunc = "COUNT"
	AggAvg        AggFunc = "AVG"
	AggMin        AggFunc = "MIN"
	AggMax        AggFunc = "MAX"
	AggPercentile AggFunc = "PERCENTILE"
)

// Linear reports whether the aggregate is a linear (sampling-friendly)
// aggregate. MIN/MAX and COUNT(DISTINCT) are non-linear: samples cannot
// bound their error, so approximate engines must fall back to exact
// execution for them — one of the paper's generality limits.
func (f AggFunc) Linear() bool { return f == AggSum || f == AggCount || f == AggAvg }

// SampleApproximable reports whether the aggregate's error can be bounded
// from a uniform sample. Linear aggregates qualify via the CLT;
// PERCENTILE qualifies via the DKW inequality on the empirical CDF
// (distribution precision). MIN/MAX and COUNT(DISTINCT) do not.
func (f AggFunc) SampleApproximable() bool { return f.Linear() || f == AggPercentile }

// AggExpr is an aggregate call appearing inside a select item. It
// implements expr.Expr so that composite items such as SUM(a)/SUM(b) parse
// into ordinary expression trees; the planner replaces each AggExpr with a
// reference to the aggregate's output slot before evaluation.
type AggExpr struct {
	Func     AggFunc
	Arg      expr.Expr // nil for COUNT(*)
	Star     bool
	Distinct bool
	// Param is PERCENTILE's quantile in (0, 1).
	Param float64
	// Slot is assigned by the parser: the index of this aggregate's
	// output among the statement's Aggregates().
	Slot int
}

// Eval implements expr.Expr. The planner must rewrite AggExprs away before
// evaluation; reaching Eval is a bug.
func (a *AggExpr) Eval(expr.Row) (storage.Value, error) {
	return storage.Value{}, fmt.Errorf("sqlparse: unplanned aggregate %s", a)
}

// Type implements expr.Expr.
func (a *AggExpr) Type() storage.Type {
	switch a.Func {
	case AggCount:
		return storage.TypeInt64
	case AggAvg, AggPercentile:
		return storage.TypeFloat64
	case AggMin, AggMax:
		if a.Arg != nil {
			return a.Arg.Type()
		}
		return storage.TypeFloat64
	default:
		if a.Arg != nil && a.Arg.Type() == storage.TypeInt64 {
			return storage.TypeInt64
		}
		return storage.TypeFloat64
	}
}

// String implements expr.Expr.
func (a *AggExpr) String() string {
	arg := "*"
	if !a.Star && a.Arg != nil {
		arg = a.Arg.String()
	}
	if a.Distinct {
		arg = "DISTINCT " + arg
	}
	if a.Func == AggPercentile {
		return fmt.Sprintf("%s(%s, %g)", a.Func, arg, a.Param)
	}
	return fmt.Sprintf("%s(%s)", a.Func, arg)
}

// Walk implements expr.Expr.
func (a *AggExpr) Walk(f func(expr.Expr)) {
	f(a)
	if a.Arg != nil {
		a.Arg.Walk(f)
	}
}

// SelectItem is one output column of the query.
type SelectItem struct {
	Expr  expr.Expr // may contain AggExpr nodes
	Alias string
}

// Name returns the display name of the item.
func (s SelectItem) Name(i int) string {
	if s.Alias != "" {
		return s.Alias
	}
	if s.Expr != nil {
		return s.Expr.String()
	}
	return fmt.Sprintf("col%d", i)
}

// TableSample is a parsed TABLESAMPLE clause.
type TableSample struct {
	Spec sample.Spec
}

// pctString renders a rate as the percentage literal the parser divides
// back to exactly that rate. The obvious candidate rate*100 can round so
// that fl(x/100) != rate; the few-ulp neighborhood always contains a
// working value for any parser-produced rate, and the shortest decimal
// among them is preferred.
func pctString(rate float64) string {
	best := ""
	try := func(x float64) {
		if x > 0 && x/100 == rate {
			s := strconv.FormatFloat(x, 'g', -1, 64)
			if best == "" || len(s) < len(best) {
				best = s
			}
		}
	}
	x0 := rate * 100
	try(x0)
	up, down := x0, x0
	for i := 0; i < 8; i++ {
		up = math.Nextafter(up, math.Inf(1))
		down = math.Nextafter(down, math.Inf(-1))
		try(up)
		try(down)
	}
	if best == "" {
		best = strconv.FormatFloat(x0, 'g', -1, 64)
	}
	return best
}

// render writes the clause body in the grammar parseTableSample accepts, so
// a statement's String() re-parses to the same sampler spec. Seed and
// Salt have no SQL syntax and are omitted. With template set, rates and
// thresholds — parameters, not shape — become `?` while the sampler kind
// and key columns stay.
func (ts *TableSample) render(template bool) string {
	sp := ts.Spec
	pct, keep := pctString, strconv.Itoa(sp.KeepThreshold)
	if template {
		pct, keep = func(float64) string { return "?" }, "?"
	}
	var b strings.Builder
	switch sp.Kind {
	case sample.KindUniformRow:
		b.WriteString("BERNOULLI (" + pct(sp.Rate))
	case sample.KindBlock:
		b.WriteString("SYSTEM (" + pct(sp.Rate))
	case sample.KindUniverse:
		b.WriteString("UNIVERSE (" + pct(sp.Rate))
	case sample.KindDistinct:
		b.WriteString("DISTINCT (" + pct(sp.Rate))
		if sp.KeepThreshold > 1 {
			b.WriteString(", " + keep)
		}
	case sample.KindBiLevel:
		b.WriteString("BILEVEL (" + pct(sp.Rate) + ", " + pct(sp.RowRate))
	default:
		// Not expressible in the grammar; fall back to the EXPLAIN form.
		if template {
			return sp.Kind.String() + " (?)"
		}
		return sp.String()
	}
	b.WriteString(")")
	if len(sp.KeyColumns) > 0 {
		b.WriteString(" ON (" + strings.Join(sp.KeyColumns, ", ") + ")")
	}
	return b.String()
}

// TableRef names a table in FROM, optionally aliased and sampled.
type TableRef struct {
	Name   string
	Alias  string
	Sample *TableSample
}

// JoinClause is an INNER JOIN with an ON condition.
type JoinClause struct {
	Table TableRef
	On    expr.Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr expr.Expr
	Desc bool
}

// ErrorClause is the AQP extension: WITH ERROR e [%] CONFIDENCE c [%].
type ErrorClause struct {
	RelError   float64 // e.g. 0.05
	Confidence float64 // e.g. 0.95
}

// SelectStmt is the parsed query, and the prepared query every layer
// shares: Parse returns it complete (aggregate slots assigned) and nothing
// writes it afterwards, so one statement may be planned, rendered and
// fingerprinted from any number of goroutines without a lock.
type SelectStmt struct {
	Items   []SelectItem
	From    TableRef
	Joins   []JoinClause
	Where   expr.Expr
	GroupBy []expr.Expr
	Having  expr.Expr
	OrderBy []OrderItem
	Limit   int // -1 when absent
	Error   *ErrorClause

	// Explain marks an EXPLAIN-prefixed statement (plan only); Analyze
	// additionally executes the statement and reports the traced profile.
	// Analyze implies Explain.
	Explain bool
	Analyze bool

	// aggs is filled in by Parse; text and fp memoise String and
	// Fingerprint, which a served request asks for several times (wire
	// encoding per scatter leg, audit dedup, the fingerprint stamp and the
	// workload registry).
	aggs     []*AggExpr
	itemAggs int // aggregates in the select items; the rest are HAVING's
	textOnce sync.Once
	text     string
	fpOnce   sync.Once
	fp       Fingerprint
}

// Aggregates returns all AggExpr nodes in the select items and HAVING
// clause, in traversal order; Aggregates()[i].Slot == i. The slice is
// shared: callers must not modify it.
func (s *SelectStmt) Aggregates() []*AggExpr { return s.aggs }

// HasAggregates reports whether any select item contains an aggregate call.
func (s *SelectStmt) HasAggregates() bool { return s.itemAggs > 0 }

// String renders the statement back to SQL (canonicalized).
func (s *SelectStmt) String() string {
	s.textOnce.Do(func() { s.text = s.render(false) })
	return s.text
}

// render writes the canonical statement. With template set it writes the
// fingerprint template instead: no EXPLAIN prefix, and every literal
// position (expression literals, TABLESAMPLE rates, LIMIT, the error
// clause) parameterized.
func (s *SelectStmt) render(template bool) string {
	ex := expr.Expr.String
	if template {
		ex = templateExpr
	}
	var b strings.Builder
	if s.Explain && !template {
		b.WriteString("EXPLAIN ")
		if s.Analyze {
			b.WriteString("ANALYZE ")
		}
	}
	b.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(ex(it.Expr))
		if it.Alias != "" {
			b.WriteString(" AS " + it.Alias)
		}
	}
	b.WriteString(" FROM " + s.From.Name)
	if s.From.Sample != nil {
		b.WriteString(" TABLESAMPLE " + s.From.Sample.render(template))
	}
	for _, j := range s.Joins {
		b.WriteString(" JOIN " + j.Table.Name)
		if j.Table.Sample != nil {
			b.WriteString(" TABLESAMPLE " + j.Table.Sample.render(template))
		}
		b.WriteString(" ON " + ex(j.On))
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + ex(s.Where))
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(ex(g))
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + ex(s.Having))
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(ex(o.Expr))
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	switch {
	case s.Limit >= 0 && template:
		b.WriteString(" LIMIT ?")
	case s.Limit >= 0:
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	switch {
	case s.Error != nil && template:
		b.WriteString(" WITH ERROR ? CONFIDENCE ?")
	case s.Error != nil:
		fmt.Fprintf(&b, " WITH ERROR %s%% CONFIDENCE %s%%", pctString(s.Error.RelError), pctString(s.Error.Confidence))
	}
	return b.String()
}
