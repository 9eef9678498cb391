// Package expr defines the scalar expression AST shared by the SQL parser,
// the planner, and the executor, together with a row-at-a-time evaluator.
package expr

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"repro/internal/storage"
)

// Op enumerates binary and unary operators.
type Op uint8

// Operators.
const (
	OpInvalid Op = iota
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpNot
	OpNeg
)

// String returns the SQL spelling of the operator.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpNot:
		return "NOT"
	case OpNeg:
		return "-"
	}
	return "?"
}

// Comparison reports whether the operator yields a boolean from two scalars.
func (o Op) Comparison() bool { return o >= OpEq && o <= OpGe }

// Row abstracts positional access to the current input row.
type Row interface {
	// ColumnValue returns the value of the column bound at index i.
	ColumnValue(i int) storage.Value
}

// ValuesRow is a Row over a plain slice.
type ValuesRow []storage.Value

// ColumnValue implements Row.
func (r ValuesRow) ColumnValue(i int) storage.Value { return r[i] }

// Expr is a scalar expression node.
type Expr interface {
	// Eval computes the expression over one row.
	Eval(row Row) (storage.Value, error)
	// Type returns the static result type (after Bind).
	Type() storage.Type
	// String renders the expression as SQL-ish text.
	String() string
	// Walk calls f on this node and recursively on all children.
	Walk(f func(Expr))
}

// ColRef references an input column. Name is as written; Index is resolved
// by Bind against an output schema.
type ColRef struct {
	Name  string
	Index int
	Typ   storage.Type
}

// Eval implements Expr.
func (c *ColRef) Eval(row Row) (storage.Value, error) {
	return row.ColumnValue(c.Index), nil
}

// Type implements Expr.
func (c *ColRef) Type() storage.Type { return c.Typ }

// String implements Expr.
func (c *ColRef) String() string { return c.Name }

// Walk implements Expr.
func (c *ColRef) Walk(f func(Expr)) { f(c) }

// Lit is a literal constant.
type Lit struct {
	Val storage.Value
}

// Eval implements Expr.
func (l *Lit) Eval(Row) (storage.Value, error) { return l.Val, nil }

// Type implements Expr.
func (l *Lit) Type() storage.Type { return l.Val.Typ }

// String implements Expr.
func (l *Lit) String() string {
	if l.Val.Typ == storage.TypeString && !l.Val.IsNull() {
		return "'" + strings.ReplaceAll(l.Val.S, "'", "''") + "'"
	}
	return l.Val.String()
}

// Walk implements Expr.
func (l *Lit) Walk(f func(Expr)) { f(l) }

// Binary applies Op to two operands.
type Binary struct {
	Op   Op
	L, R Expr
}

// Type implements Expr.
func (b *Binary) Type() storage.Type {
	if b.Op.Comparison() || b.Op == OpAnd || b.Op == OpOr {
		return storage.TypeBool
	}
	lt, rt := b.L.Type(), b.R.Type()
	if b.Op == OpDiv {
		return storage.TypeFloat64
	}
	if lt == storage.TypeFloat64 || rt == storage.TypeFloat64 {
		return storage.TypeFloat64
	}
	return storage.TypeInt64
}

// String implements Expr.
func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Walk implements Expr.
func (b *Binary) Walk(f func(Expr)) {
	f(b)
	b.L.Walk(f)
	b.R.Walk(f)
}

// Eval implements Expr.
func (b *Binary) Eval(row Row) (storage.Value, error) {
	// Short-circuit boolean connectives with SQL three-valued logic
	// collapsed to two-valued (NULL counts as false).
	if b.Op == OpAnd || b.Op == OpOr {
		lv, err := b.L.Eval(row)
		if err != nil {
			return storage.Value{}, err
		}
		lb := !lv.IsNull() && lv.B
		if b.Op == OpAnd && !lb {
			return storage.Bool(false), nil
		}
		if b.Op == OpOr && lb {
			return storage.Bool(true), nil
		}
		rv, err := b.R.Eval(row)
		if err != nil {
			return storage.Value{}, err
		}
		return storage.Bool(!rv.IsNull() && rv.B), nil
	}
	lv, err := b.L.Eval(row)
	if err != nil {
		return storage.Value{}, err
	}
	rv, err := b.R.Eval(row)
	if err != nil {
		return storage.Value{}, err
	}
	if b.Op.Comparison() {
		if lv.IsNull() || rv.IsNull() {
			return storage.Bool(false), nil
		}
		cmp := lv.Compare(rv)
		switch b.Op {
		case OpEq:
			return storage.Bool(lv.Equal(rv)), nil
		case OpNe:
			return storage.Bool(!lv.Equal(rv)), nil
		case OpLt:
			return storage.Bool(cmp < 0), nil
		case OpLe:
			return storage.Bool(cmp <= 0), nil
		case OpGt:
			return storage.Bool(cmp > 0), nil
		case OpGe:
			return storage.Bool(cmp >= 0), nil
		}
	}
	if lv.IsNull() || rv.IsNull() {
		return storage.NullValue(b.Type()), nil
	}
	switch b.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return evalArith(b.Op, lv, rv)
	}
	return storage.Value{}, fmt.Errorf("expr: unsupported binary op %v", b.Op)
}

func evalArith(op Op, lv, rv storage.Value) (storage.Value, error) {
	if !lv.Typ.Numeric() || !rv.Typ.Numeric() {
		return storage.Value{}, fmt.Errorf("expr: arithmetic on non-numeric types %v, %v", lv.Typ, rv.Typ)
	}
	if op == OpDiv {
		d := rv.AsFloat()
		if d == 0 {
			return storage.NullValue(storage.TypeFloat64), nil
		}
		return storage.Float64(lv.AsFloat() / d), nil
	}
	if lv.Typ == storage.TypeInt64 && rv.Typ == storage.TypeInt64 {
		a, c := lv.I, rv.I
		switch op {
		case OpAdd:
			return storage.Int64(a + c), nil
		case OpSub:
			return storage.Int64(a - c), nil
		case OpMul:
			return storage.Int64(a * c), nil
		case OpMod:
			if c == 0 {
				return storage.NullValue(storage.TypeInt64), nil
			}
			return storage.Int64(a % c), nil
		}
	}
	a, c := lv.AsFloat(), rv.AsFloat()
	switch op {
	case OpAdd:
		return storage.Float64(a + c), nil
	case OpSub:
		return storage.Float64(a - c), nil
	case OpMul:
		return storage.Float64(a * c), nil
	case OpMod:
		if c == 0 {
			return storage.NullValue(storage.TypeFloat64), nil
		}
		return storage.Float64(math.Mod(a, c)), nil
	}
	return storage.Value{}, fmt.Errorf("expr: unsupported arithmetic op %v", op)
}

// Unary applies OpNot or OpNeg.
type Unary struct {
	Op Op
	X  Expr
}

// Type implements Expr.
func (u *Unary) Type() storage.Type {
	if u.Op == OpNot {
		return storage.TypeBool
	}
	return u.X.Type()
}

// String implements Expr.
func (u *Unary) String() string { return fmt.Sprintf("(%s %s)", u.Op, u.X) }

// Walk implements Expr.
func (u *Unary) Walk(f func(Expr)) {
	f(u)
	u.X.Walk(f)
}

// Eval implements Expr.
func (u *Unary) Eval(row Row) (storage.Value, error) {
	v, err := u.X.Eval(row)
	if err != nil {
		return storage.Value{}, err
	}
	switch u.Op {
	case OpNot:
		return storage.Bool(!(!v.IsNull() && v.B)), nil
	case OpNeg:
		if v.IsNull() {
			return v, nil
		}
		if v.Typ == storage.TypeInt64 {
			return storage.Int64(-v.I), nil
		}
		return storage.Float64(-v.AsFloat()), nil
	}
	return storage.Value{}, fmt.Errorf("expr: unsupported unary op %v", u.Op)
}

// In tests membership of X in a literal list.
type In struct {
	X      Expr
	List   []Expr
	Negate bool
}

// Type implements Expr.
func (in *In) Type() storage.Type { return storage.TypeBool }

// String implements Expr.
func (in *In) String() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.String()
	}
	neg := ""
	if in.Negate {
		neg = " NOT"
	}
	return fmt.Sprintf("(%s%s IN (%s))", in.X, neg, strings.Join(parts, ", "))
}

// Walk implements Expr.
func (in *In) Walk(f func(Expr)) {
	f(in)
	in.X.Walk(f)
	for _, e := range in.List {
		e.Walk(f)
	}
}

// Eval implements Expr.
func (in *In) Eval(row Row) (storage.Value, error) {
	x, err := in.X.Eval(row)
	if err != nil {
		return storage.Value{}, err
	}
	if x.IsNull() {
		return storage.Bool(false), nil
	}
	found := false
	for _, e := range in.List {
		v, err := e.Eval(row)
		if err != nil {
			return storage.Value{}, err
		}
		if x.Equal(v) {
			found = true
			break
		}
	}
	return storage.Bool(found != in.Negate), nil
}

// Call invokes a built-in scalar function.
type Call struct {
	Name string // upper case
	Args []Expr
}

// Type implements Expr.
func (c *Call) Type() storage.Type {
	switch c.Name {
	case "ABS":
		if len(c.Args) == 1 {
			return c.Args[0].Type()
		}
		return storage.TypeFloat64
	case "HASH64", "LENGTH":
		return storage.TypeInt64
	case "SQRT", "LN", "EXP", "POW":
		return storage.TypeFloat64
	case "LOWER", "UPPER", "SUBSTR":
		return storage.TypeString
	case "LIKE", "STARTS_WITH", "ISNULL", "ISNOTNULL":
		return storage.TypeBool
	}
	return storage.TypeFloat64
}

// String implements Expr. The predicates the parser desugars (LIKE,
// IS [NOT] NULL) render back in their SQL spelling so that a statement's
// String() re-parses; everything else uses call syntax.
func (c *Call) String() string {
	switch c.Name {
	case "LIKE":
		if len(c.Args) == 2 {
			return fmt.Sprintf("(%s LIKE %s)", c.Args[0], c.Args[1])
		}
	case "ISNULL":
		if len(c.Args) == 1 {
			return fmt.Sprintf("(%s IS NULL)", c.Args[0])
		}
	case "ISNOTNULL":
		if len(c.Args) == 1 {
			return fmt.Sprintf("(%s IS NOT NULL)", c.Args[0])
		}
	}
	parts := make([]string, len(c.Args))
	for i, e := range c.Args {
		parts[i] = e.String()
	}
	return fmt.Sprintf("%s(%s)", c.Name, strings.Join(parts, ", "))
}

// Walk implements Expr.
func (c *Call) Walk(f func(Expr)) {
	f(c)
	for _, e := range c.Args {
		e.Walk(f)
	}
}

// Hash64 is the deterministic value hash used by the universe sampler and
// by HASH64(). Both sides of a join must agree on it exactly.
func Hash64(v storage.Value) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(v.GroupKey()))
	return h.Sum64()
}

// Eval implements Expr.
func (c *Call) Eval(row Row) (storage.Value, error) {
	args := make([]storage.Value, len(c.Args))
	for i, e := range c.Args {
		v, err := e.Eval(row)
		if err != nil {
			return storage.Value{}, err
		}
		args[i] = v
	}
	switch c.Name {
	case "ABS":
		if args[0].IsNull() {
			return args[0], nil
		}
		if args[0].Typ == storage.TypeInt64 {
			if args[0].I < 0 {
				return storage.Int64(-args[0].I), nil
			}
			return args[0], nil
		}
		return storage.Float64(math.Abs(args[0].AsFloat())), nil
	case "SQRT":
		return storage.Float64(math.Sqrt(args[0].AsFloat())), nil
	case "LN":
		return storage.Float64(math.Log(args[0].AsFloat())), nil
	case "EXP":
		return storage.Float64(math.Exp(args[0].AsFloat())), nil
	case "POW":
		if len(args) != 2 {
			return storage.Value{}, fmt.Errorf("expr: POW takes 2 arguments")
		}
		return storage.Float64(math.Pow(args[0].AsFloat(), args[1].AsFloat())), nil
	case "HASH64":
		return storage.Int64(int64(Hash64(args[0]) >> 1)), nil
	case "LENGTH":
		return storage.Int64(int64(len(args[0].S))), nil
	case "LOWER":
		return storage.Str(strings.ToLower(args[0].S)), nil
	case "UPPER":
		return storage.Str(strings.ToUpper(args[0].S)), nil
	case "SUBSTR":
		if len(args) != 3 {
			return storage.Value{}, fmt.Errorf("expr: SUBSTR takes 3 arguments")
		}
		s := args[0].S
		start := int(args[1].AsInt()) - 1
		n := int(args[2].AsInt())
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := start + n
		if end > len(s) {
			end = len(s)
		}
		return storage.Str(s[start:end]), nil
	case "STARTS_WITH":
		if len(args) != 2 {
			return storage.Value{}, fmt.Errorf("expr: STARTS_WITH takes 2 arguments")
		}
		return storage.Bool(strings.HasPrefix(args[0].S, args[1].S)), nil
	case "ISNULL":
		return storage.Bool(args[0].IsNull()), nil
	case "ISNOTNULL":
		return storage.Bool(!args[0].IsNull()), nil
	case "LIKE":
		if len(args) != 2 {
			return storage.Value{}, fmt.Errorf("expr: LIKE takes 2 arguments")
		}
		if args[0].IsNull() || args[1].IsNull() {
			return storage.Bool(false), nil
		}
		return storage.Bool(likeMatch(args[0].S, args[1].S)), nil
	}
	return storage.Value{}, fmt.Errorf("expr: unknown function %s", c.Name)
}

// likeMatch implements SQL LIKE with % (any run) and _ (any one byte)
// wildcards via iterative backtracking.
func likeMatch(s, pat string) bool {
	si, pi := 0, 0
	star, ss := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]):
			si++
			pi++
		case pi < len(pat) && pat[pi] == '%':
			star, ss = pi, si
			pi++
		case star >= 0:
			pi = star + 1
			ss++
			si = ss
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// Bind resolves every ColRef in e against the given schema, setting Index
// and Typ. It returns an error for unknown columns.
func Bind(e Expr, schema storage.Schema) error {
	var err error
	e.Walk(func(n Expr) {
		if c, ok := n.(*ColRef); ok {
			idx := schema.ColumnIndex(c.Name)
			if idx < 0 {
				if err == nil {
					err = fmt.Errorf("expr: unknown column %q", c.Name)
				}
				return
			}
			c.Index = idx
			c.Typ = schema[idx].Type
		}
	})
	return err
}

// Columns returns the distinct column names referenced by e, in first-use
// order.
func Columns(e Expr) []string {
	seen := make(map[string]bool)
	var out []string
	e.Walk(func(n Expr) {
		if c, ok := n.(*ColRef); ok && !seen[c.Name] {
			seen[c.Name] = true
			out = append(out, c.Name)
		}
	})
	return out
}

// EvalBool evaluates e and coerces the result to a plain bool (NULL=false).
func EvalBool(e Expr, row Row) (bool, error) {
	v, err := e.Eval(row)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.Typ == storage.TypeBool && v.B, nil
}

// Clone deep-copies an expression tree.
func Clone(e Expr) Expr { return Map(e, nil) }

// Map rebuilds an expression tree top-down: f (when non-nil) sees each
// node first and may return its replacement, which is taken as is; a node
// f passes on (nil) is copied with its children mapped. Node types defined
// outside this package have no children Map knows of, so f must replace
// them.
func Map(e Expr, f func(Expr) Expr) Expr {
	if f != nil {
		if r := f(e); r != nil {
			return r
		}
	}
	switch n := e.(type) {
	case *ColRef:
		cp := *n
		return &cp
	case *Lit:
		cp := *n
		return &cp
	case *Binary:
		return &Binary{Op: n.Op, L: Map(n.L, f), R: Map(n.R, f)}
	case *Unary:
		return &Unary{Op: n.Op, X: Map(n.X, f)}
	case *In:
		list := make([]Expr, len(n.List))
		for i, a := range n.List {
			list[i] = Map(a, f)
		}
		return &In{X: Map(n.X, f), List: list, Negate: n.Negate}
	case *Call:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = Map(a, f)
		}
		return &Call{Name: n.Name, Args: args}
	}
	panic(fmt.Sprintf("expr: Map of unknown node %T", e))
}
