package sqlparse

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"repro/internal/expr"
)

// Fingerprint identifies a query *shape*: the canonical statement with
// every literal replaced by a placeholder, plus the query-column-set
// (the grouping and predicate columns that determine which stratified
// sample or synopsis could serve the shape). Two queries that differ
// only in literal values — `WHERE x > 5` vs `WHERE x > 9`, different
// LIMIT or error-clause numbers, different TABLESAMPLE rates — share a
// fingerprint; any structural change (another column, another operator,
// another aggregate) produces a new one.
type Fingerprint struct {
	// Hash is the stable 64-bit FNV-1a digest of Template and QCS,
	// rendered as 16 hex digits. This is the registry key and the value
	// stamped into Diagnostics.
	Hash string `json:"hash"`
	// Template is the literal-normalized canonical SQL.
	Template string `json:"template"`
	// Table is the base (FROM) table.
	Table string `json:"table"`
	// QCS is the sorted distinct set of columns referenced by GROUP BY
	// and WHERE — the query-column-set that sample/synopsis selection
	// keys on.
	QCS []string `json:"qcs,omitempty"`
}

// Fingerprint computes the statement's shape identity. It is total: any
// parse-able statement fingerprints without error, and the EXPLAIN /
// EXPLAIN ANALYZE prefix is ignored so analysis runs correlate with
// their plain shape. Computed once per statement; the QCS slice is shared
// and must not be modified.
func (s *SelectStmt) Fingerprint() Fingerprint {
	s.fpOnce.Do(func() { s.fp = s.fingerprint() })
	return s.fp
}

func (s *SelectStmt) fingerprint() Fingerprint {
	tmpl := s.TemplateString()
	qcs := s.QueryColumnSet()
	h := fnv.New64a()
	_, _ = h.Write([]byte(tmpl))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(strings.Join(qcs, ",")))
	return Fingerprint{
		Hash:     fmt.Sprintf("%016x", h.Sum64()),
		Template: tmpl,
		Table:    s.From.Name,
		QCS:      qcs,
	}
}

// QueryColumnSet returns the sorted distinct columns referenced by the
// GROUP BY and WHERE clauses — the purely syntactic analogue of the
// offline engine's QCS, computable without a catalog.
func (s *SelectStmt) QueryColumnSet() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(e expr.Expr) {
		if e == nil {
			return
		}
		for _, c := range expr.Columns(e) {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	for _, g := range s.GroupBy {
		add(g)
	}
	add(s.Where)
	sort.Strings(out)
	return out
}

// TemplateString renders the statement in its canonical form with every
// literal parameterized: scalar literals become `?`, all-literal IN
// lists collapse to `IN (?)` (list arity is a parameter, not shape),
// LIMIT keeps its presence but not its value, WITH ERROR/CONFIDENCE and
// TABLESAMPLE keep their kind but parameterize their rates. Structure —
// columns, operators, aggregate functions (including PERCENTILE's
// quantile, which selects the statistic computed), join topology, sort
// keys — is preserved verbatim.
func (s *SelectStmt) TemplateString() string { return s.render(true) }

// placeholder stands where a literal was.
var placeholder expr.Expr = &expr.ColRef{Name: "?"}

// templateExpr renders an expression tree in the canonical String()
// spelling with literals replaced by placeholders.
func templateExpr(e expr.Expr) string { return maskLiterals(e).String() }

func maskLiterals(e expr.Expr) expr.Expr {
	return expr.Map(e, func(n expr.Expr) expr.Expr {
		switch n := n.(type) {
		case *expr.ColRef:
			return n // the masked tree is only rendered: share, don't copy
		case *expr.Lit:
			return placeholder
		case *expr.In:
			for _, it := range n.List {
				if _, ok := it.(*expr.Lit); !ok {
					return nil
				}
			}
			// The membership list's arity is a parameter: IN (1, 2) and
			// IN (1, 2, 3) are the same shape with different constants.
			return &expr.In{X: maskLiterals(n.X), List: []expr.Expr{placeholder}, Negate: n.Negate}
		case *AggExpr:
			// PERCENTILE's quantile stays: it selects which statistic is
			// computed — shape, like the function name, not a constant.
			cp := *n
			if n.Arg != nil {
				cp.Arg = maskLiterals(n.Arg)
			}
			return &cp
		}
		return nil
	})
}
