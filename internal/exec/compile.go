package exec

// Compiled row kernels for the morsel-parallel hot loop.
//
// The tree-walking evaluator allocates a Row adapter per row and pays an
// interface dispatch plus Value boxing per expression node. For the
// expression shapes that dominate aggregate scans — column references,
// numeric literals, arithmetic, comparisons, AND/OR/NOT, and string
// equality and IN against literals — we compile the tree once per scan
// into closures that read the typed column storage directly. String
// predicates compare dictionary codes: each literal is resolved against
// the snapshot's dictionary at compile time, so the row loop never touches
// string bytes. Compilation is best-effort: any unsupported node returns a
// nil kernel and the caller falls back to the general evaluator for that
// expression only.
//
// Faithfulness: every kernel reproduces the tree-walker's float operation
// sequence exactly (AsFloat conversions, NULL propagation, short-circuit
// two-valued logic, division-by-zero to NULL), so fast and slow paths are
// bit-identical and the choice never changes a result.

import (
	"repro/internal/expr"
	"repro/internal/storage"
)

// numKernel evaluates a numeric expression for one table row, returning
// the value as float64 (the evaluator's AsFloat form) and a NULL flag.
type numKernel func(row int) (float64, bool)

// boolKernel evaluates a predicate for one table row with SQL
// three-valued logic collapsed to two-valued (NULL is false).
type boolKernel func(row int) bool

// colMap translates an expression's bound column index to a table column
// index; nil means identity (the expression is bound to the table schema).
type colMap []int

func (m colMap) col(i int) int {
	if m == nil {
		return i
	}
	return m[i]
}

// compileNum compiles a numeric expression against t, or returns nil.
func compileNum(e expr.Expr, t *storage.Table, m colMap) numKernel {
	switch n := e.(type) {
	case *expr.ColRef:
		switch c := t.Column(m.col(n.Index)).(type) {
		case *storage.Int64Column:
			return func(row int) (float64, bool) {
				if c.IsNull(row) {
					return 0, true
				}
				return float64(c.Int(row)), false
			}
		case *storage.Float64Column:
			return func(row int) (float64, bool) {
				if c.IsNull(row) {
					return 0, true
				}
				return c.Float(row), false
			}
		}
		return nil
	case *expr.Lit:
		if !n.Val.Typ.Numeric() {
			return nil
		}
		v, null := n.Val.AsFloat(), n.Val.IsNull()
		return func(int) (float64, bool) { return v, null }
	case *expr.Binary:
		// Integer-typed Add/Sub/Mul use int64 arithmetic in the tree
		// walker; only the float branch is compiled, which evalArith takes
		// exactly when either operand is (or division makes the result)
		// TypeFloat64.
		if n.Type() != storage.TypeFloat64 {
			return nil
		}
		l := compileNum(n.L, t, m)
		r := compileNum(n.R, t, m)
		if l == nil || r == nil {
			return nil
		}
		switch n.Op {
		case expr.OpAdd:
			return func(row int) (float64, bool) {
				a, an := l(row)
				b, bn := r(row)
				if an || bn {
					return 0, true
				}
				return a + b, false
			}
		case expr.OpSub:
			return func(row int) (float64, bool) {
				a, an := l(row)
				b, bn := r(row)
				if an || bn {
					return 0, true
				}
				return a - b, false
			}
		case expr.OpMul:
			return func(row int) (float64, bool) {
				a, an := l(row)
				b, bn := r(row)
				if an || bn {
					return 0, true
				}
				return a * b, false
			}
		case expr.OpDiv:
			return func(row int) (float64, bool) {
				a, an := l(row)
				b, bn := r(row)
				if an || bn || b == 0 {
					return 0, true
				}
				return a / b, false
			}
		}
		return nil
	}
	return nil
}

// intKernel evaluates an integer expression for one table row as the
// evaluator's TypeInt64 value and a NULL flag.
type intKernel func(row int) (int64, bool)

// compileInt compiles an expression whose evaluated value is always
// TypeInt64 (or NULL) — an integer column or literal — or returns nil.
func compileInt(e expr.Expr, t *storage.Table, m colMap) intKernel {
	switch n := e.(type) {
	case *expr.ColRef:
		if c, ok := t.Column(m.col(n.Index)).(*storage.Int64Column); ok {
			return func(row int) (int64, bool) { return c.Int(row), c.IsNull(row) }
		}
	case *expr.Lit:
		if n.Val.Typ == storage.TypeInt64 {
			v, null := n.Val.I, n.Val.IsNull()
			return func(int) (int64, bool) { return v, null }
		}
	}
	return nil
}

// stringLit returns the literal's string when e is a non-NULL string
// literal.
func stringLit(e expr.Expr) (string, bool) {
	if l, ok := e.(*expr.Lit); ok && l.Val.Typ == storage.TypeString && !l.Val.IsNull() {
		return l.Val.S, true
	}
	return "", false
}

// dictColumn returns the dictionary column e references, if it is one.
func dictColumn(e expr.Expr, t *storage.Table, m colMap) *storage.StringColumn {
	if c, ok := e.(*expr.ColRef); ok {
		d, _ := t.Column(m.col(c.Index)).(*storage.StringColumn)
		return d
	}
	return nil
}

// compileStringEq compiles column = 'lit' (ne: column <> 'lit') on codes.
// A literal no row holds makes = constant false and <> true for every
// non-NULL row; NULL rows (code 0) fail both, as in the evaluator.
func compileStringEq(d *storage.StringColumn, lit string, ne bool) boolKernel {
	code, found := d.Lookup(lit)
	switch {
	case ne && found:
		return func(row int) bool { c := d.Code(row); return c != code && c != 0 }
	case ne:
		return func(row int) bool { return d.Code(row) != 0 }
	case found:
		return func(row int) bool { return d.Code(row) == code }
	}
	return func(int) bool { return false }
}

// compileStringIn compiles column [NOT] IN (literals) on codes. List
// entries that cannot equal a string — NULLs, other types, strings no row
// holds — never match in the evaluator either, so they are dropped.
func compileStringIn(d *storage.StringColumn, in *expr.In) boolKernel {
	var codes []uint32
	for _, e := range in.List {
		l, ok := e.(*expr.Lit)
		if !ok {
			return nil
		}
		if s, ok := stringLit(l); ok {
			if code, found := d.Lookup(s); found {
				codes = append(codes, code)
			}
		}
	}
	negate := in.Negate
	return func(row int) bool {
		c := d.Code(row)
		if c == 0 {
			return false
		}
		for _, code := range codes {
			if c == code {
				return !negate
			}
		}
		return negate
	}
}

// compileBool compiles a predicate against t, or returns nil.
func compileBool(e expr.Expr, t *storage.Table, m colMap) boolKernel {
	switch n := e.(type) {
	case *expr.ColRef:
		if n.Typ != storage.TypeBool {
			return nil
		}
		c := t.Column(m.col(n.Index))
		return func(row int) bool {
			v := c.Value(row)
			return !v.IsNull() && v.B
		}
	case *expr.Unary:
		// The evaluator's NOT is two-valued: NOT of a NULL or false
		// operand is true, exactly the negation of the operand's kernel.
		if n.Op != expr.OpNot {
			return nil
		}
		x := compileBool(n.X, t, m)
		if x == nil {
			return nil
		}
		return func(row int) bool { return !x(row) }
	case *expr.In:
		if d := dictColumn(n.X, t, m); d != nil {
			return compileStringIn(d, n)
		}
		return nil
	case *expr.Binary:
		switch n.Op {
		case expr.OpAnd:
			l := compileBool(n.L, t, m)
			r := compileBool(n.R, t, m)
			if l == nil || r == nil {
				return nil
			}
			return func(row int) bool { return l(row) && r(row) }
		case expr.OpOr:
			l := compileBool(n.L, t, m)
			r := compileBool(n.R, t, m)
			if l == nil || r == nil {
				return nil
			}
			return func(row int) bool { return l(row) || r(row) }
		}
		if !n.Op.Comparison() {
			return nil
		}
		if n.Op == expr.OpEq || n.Op == expr.OpNe {
			ne := n.Op == expr.OpNe
			col, lit := n.L, n.R
			if dictColumn(col, t, m) == nil {
				col, lit = n.R, n.L
			}
			if d := dictColumn(col, t, m); d != nil {
				if s, ok := stringLit(lit); ok {
					return compileStringEq(d, s, ne)
				}
				return nil
			}
			// Value.Equal compares same-typed int64s as integers; beyond
			// 2^53 a float comparison could disagree, so an integer pair
			// is compared as int64 and only a pair with a float operand as
			// float64. The ordering operators always go through
			// Value.Compare, which promotes every numeric pair to float64.
			if n.L.Type() != storage.TypeFloat64 && n.R.Type() != storage.TypeFloat64 {
				l := compileInt(n.L, t, m)
				r := compileInt(n.R, t, m)
				if l == nil || r == nil {
					return nil
				}
				return func(row int) bool {
					a, an := l(row)
					b, bn := r(row)
					return !an && !bn && (a == b) != ne
				}
			}
		}
		l := compileNum(n.L, t, m)
		r := compileNum(n.R, t, m)
		if l == nil || r == nil {
			return nil
		}
		switch n.Op {
		case expr.OpEq:
			return func(row int) bool {
				a, an := l(row)
				b, bn := r(row)
				return !an && !bn && a == b
			}
		case expr.OpNe:
			return func(row int) bool {
				a, an := l(row)
				b, bn := r(row)
				return !an && !bn && a != b
			}
		case expr.OpLt:
			return func(row int) bool {
				a, an := l(row)
				b, bn := r(row)
				return !an && !bn && a < b
			}
		case expr.OpLe:
			return func(row int) bool {
				a, an := l(row)
				b, bn := r(row)
				return !an && !bn && a <= b
			}
		case expr.OpGt:
			return func(row int) bool {
				a, an := l(row)
				b, bn := r(row)
				return !an && !bn && a > b
			}
		case expr.OpGe:
			return func(row int) bool {
				a, an := l(row)
				b, bn := r(row)
				return !an && !bn && a >= b
			}
		}
	}
	return nil
}
