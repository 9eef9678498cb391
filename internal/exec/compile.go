package exec

// Vector kernels for the scan.
//
// The scan works on a run of rows — a storage block, or a morsel of a
// ranged scan's order, at most maxRunRows rows — held as a selection
// vector: the table row ids still in play, in input order. A predicate
// compiles to a kernel that narrows a selection and keeps its order, a
// numeric expression to one that materialises its value per selected row
// into per-worker scratch; both loop over the typed column storage
// (dictionary codes for strings, each literal looked up once per scan), so
// the expression tree is walked once per run, not once per row.
//
// The selection algebra is two-valued, as the evaluator's: a NULL operand
// drops the row, AND narrows twice, NOT is the complement within the input
// selection, and OR gives its right side only the rows the left side
// refused and merges the two back by input position. Rows are matched by
// id, which is exact because a predicate is a function of the row alone.
//
// Compilation is best-effort: an unsupported node yields a nil kernel and
// the caller evaluates that expression with the tree walker per selected
// row. Every kernel reproduces the tree walker's float operation sequence
// (AsFloat conversions, NULL propagation, division by zero to NULL) and
// rows do not interact, so the two forms are bit-identical and the choice
// never changes a result.

import (
	"sync"

	"repro/internal/expr"
	"repro/internal/storage"
)

// maxRunRows caps a run, and with it a worker's scratch, whatever the
// table's block size.
const maxRunRows = 1024

// selKernel writes the rows of in its predicate keeps to out, in in's
// order, and returns them. out is at least as long as in and may be in
// itself: a kernel reads in[i] before it writes out[k], k ≤ i.
type selKernel func(sc *scratch, in, out []int32) []int32

// valKernel materialises a numeric expression over a selection: vals[i] is
// its value at row in[i] in the evaluator's AsFloat form, and nulls[i]
// marks a NULL (nulls is nil when no operand can be NULL). The slices are
// scratch or column storage: read-only, valid until the next kernel call.
type valKernel func(sc *scratch, in []int32) (vals []float64, nulls []bool)

// colRef is where a bound column lives: column col of the table of one
// side of the row — side 0 the scanned table, side j the j-th join's build.
type colRef struct{ side, col int }

// rowView binds an expression's column indices to table columns. With cols
// nil, index i is column i of side 0's table: the scan filter's binding.
type rowView struct {
	tables []*storage.Table
	cols   []colRef
}

func (v *rowView) ref(i int) colRef {
	if v.cols == nil {
		return colRef{col: i}
	}
	return v.cols[i]
}

// column returns the table column bound index i reads, and its side.
func (v *rowView) column(i int) (storage.Column, int) {
	r := v.ref(i)
	return v.tables[r.side].Column(r.col), r.side
}

// mappedRow is the row at position idx of the view, for the evaluator: a
// table row of side 0 itself, or, with at set (after a join), the row of
// each side at[side][idx].
type mappedRow struct {
	v   *rowView
	at  [][]int32
	idx int
}

// ColumnValue implements expr.Row.
func (r mappedRow) ColumnValue(i int) storage.Value {
	ref, row := r.v.ref(i), r.idx
	if r.at != nil {
		row = int(r.at[ref.side][row])
	}
	return r.v.tables[ref.side].Column(ref.col).Value(row)
}

// compiler compiles expressions against one table snapshot and records how
// much scratch the kernels index: every kernel it returns must run with a
// scratch made from it afterwards.
type compiler struct {
	v                 *rowView
	sels, nums, sides int       // temporaries by nesting depth; sides read
	consts            []float64 // numeric literals
}

// column resolves a bound column and records that its side is read.
func (c *compiler) column(i int) (storage.Column, int) {
	col, side := c.v.column(i)
	c.sides = max(c.sides, side+1)
	return col, side
}

// scratch is one worker's vector memory for one scan: the kernels'
// vectors and the run pipeline's.
type scratch struct {
	mem *vectors // the pooled memory everything below is cut from

	// The run being folded is the block rows [lo, lo+n), so a selection of
	// n rows still in rows is all of them, ascending; n is 0 for rows of an
	// order.
	lo, n  int
	rows   []int32     // the run's selection
	at     [][]int32   // after a join: per side, the table row at each position; else nil
	ident  []int32     // after a join: the positions 0, 1, … of its rows, all of them
	side   [][]int32   // per side, the rows a kernel reads at its selection
	sel    [][]int32   // selection temporaries, by depth
	num    [][]float64 // value vectors, by depth
	null   [][]bool    // NULL marks, by depth
	keep   []bool      // a comparison's outcome per selected row
	consts [][]float64 // a literal's value, once per row of a run

	// The run pipeline's: a second selection (the residual predicates',
	// then the regrouped run's) and, per selected row, the group id, the
	// weight (and again regrouped), and a slot's non-NULL values and weights.
	kept, gids        []int32
	ones, ws, orderWs []float64
	vals, valWs       []float64
}

// vectors is a scratch's backing memory. It is plain numbers, every vector
// is written before it is read, and a query over a small table would
// notice allocating and zeroing it, so finished scans hand it on.
type vectors struct {
	rows  []int32
	nums  []float64
	marks []bool
}

var vectorPool = sync.Pool{New: func() any { return new(vectors) }}

func newScratch(c *compiler, runCap int) *scratch {
	mem := vectorPool.Get().(*vectors)
	rows := carve(&mem.rows, 3+c.sides+c.sels, runCap)
	nums := carve(&mem.nums, 5+c.nums+len(c.consts), runCap)
	marks := carve(&mem.marks, 1+c.nums, runCap)
	sc := &scratch{mem: mem, rows: rows[0], kept: rows[1], gids: rows[2], side: rows[3 : 3+c.sides], sel: rows[3+c.sides:],
		ones: fill(nums[0], 1), ws: nums[1], orderWs: nums[2], vals: nums[3], valWs: nums[4],
		num: nums[5 : 5+c.nums], consts: nums[5+c.nums:], keep: marks[0], null: marks[1:]}
	for k, v := range c.consts {
		fill(sc.consts[k], v)
	}
	return sc
}

// release hands the scratch's memory on, once; the scan must be over.
func (sc *scratch) release() {
	if sc.mem != nil {
		vectorPool.Put(sc.mem)
		sc.mem = nil
	}
}

// carve cuts n vectors of runCap elements each from buf, growing it first
// if an earlier scan left it smaller.
func carve[T any](buf *[]T, n, runCap int) [][]T {
	if cap(*buf) < n*runCap {
		*buf = make([]T, n*runCap)
	}
	rest, out := (*buf)[:n*runCap], make([][]T, n)
	for i := range out {
		out[i], rest = rest[:runCap:runCap], rest[runCap:]
	}
	return out
}

func fill(v []float64, x float64) []float64 {
	for i := range v {
		v[i] = x
	}
	return v
}

// blockRun makes the block rows [lo, hi) the current run and returns its
// selection.
func (sc *scratch) blockRun(lo, hi int) []int32 {
	sc.lo, sc.n = lo, hi-lo
	sel := sc.rows[:hi-lo]
	for i := range sel {
		sel[i] = int32(lo + i)
	}
	return sel
}

// orderRun makes the given rows of an order the current run.
func (sc *scratch) orderRun(order []int32) []int32 {
	sc.lo, sc.n = 0, 0
	return sc.rows[:copy(sc.rows, order)]
}

// rowsOf returns the side's table rows at the selected positions: in
// itself before a join, gathered through at after one.
func (sc *scratch) rowsOf(side int, in []int32) []int32 {
	switch {
	case sc.at == nil:
		return in
	case len(in) > 0 && len(in) == len(sc.ident) && &in[0] == &sc.ident[0]:
		return sc.at[side][:len(in)] // every joined row, in order: no gather
	}
	out, at := sc.side[side][:len(in)], sc.at[side]
	for i, p := range in {
		out[i] = at[p]
	}
	return out
}

// dense reports whether in is the whole of the current block run, still in
// place: a regrouped copy has the length but not the order.
func (sc *scratch) dense(in []int32) bool {
	return sc.n > 0 && len(in) == sc.n && &in[0] == &sc.rows[0]
}

// rowFilter is one predicate of the scan: its vector kernel, or, for a
// shape the compiler refuses, the evaluator per selected row.
type rowFilter struct {
	pred expr.Expr
	kern selKernel
}

// filter compiles pred against the compiler's current column map.
func (c *compiler) filter(pred expr.Expr) rowFilter {
	return rowFilter{pred: pred, kern: c.pred(pred, 0)}
}

// narrow applies the predicate under selKernel's contract; row adapts the
// table to the schema the predicate is bound to.
func (f rowFilter) narrow(sc *scratch, row mappedRow, in, out []int32) ([]int32, error) {
	if f.kern != nil {
		return f.kern(sc, in, out), nil
	}
	k := 0
	for _, r := range in {
		row.idx = int(r)
		ok, err := expr.EvalBool(f.pred, row)
		if err != nil {
			return nil, err
		}
		out[k] = r
		if ok {
			k++
		}
	}
	return out[:k], nil
}

// num compiles a numeric expression whose vectors live at depth d, or
// returns nil.
func (c *compiler) num(e expr.Expr, d int) valKernel {
	c.nums = max(c.nums, d+1)
	switch n := e.(type) {
	case *expr.ColRef:
		col, side := c.column(n.Index)
		switch col := col.(type) {
		case *storage.Int64Column:
			return loadNum(col.Ints(), col.Nulls(), d, side)
		case *storage.Float64Column:
			return loadNum(col.Floats(), col.Nulls(), d, side)
		}
	case *expr.Lit:
		if !n.Val.Typ.Numeric() || n.Val.IsNull() {
			return nil
		}
		k := len(c.consts)
		c.consts = append(c.consts, n.Val.AsFloat())
		return func(sc *scratch, in []int32) ([]float64, []bool) { return sc.consts[k][:len(in)], nil }
	case *expr.Binary:
		// Integer-typed Add/Sub/Mul use int64 arithmetic in the tree
		// walker; only the float branch is compiled, which evalArith takes
		// exactly when either operand is (or division makes the result)
		// TypeFloat64.
		if n.Type() != storage.TypeFloat64 || n.Op < expr.OpAdd || n.Op > expr.OpDiv {
			return nil
		}
		l, r := c.num(n.L, d), c.num(n.R, d+1)
		if l == nil || r == nil {
			return nil
		}
		return arith(n.Op, l, r, d)
	}
	return nil
}

// loadNum reads a numeric column as float64.
func loadNum[T int64 | float64](data []T, nulls []bool, d, side int) valKernel {
	return func(sc *scratch, in []int32) ([]float64, []bool) {
		rows := sc.rowsOf(side, in)
		out := sc.num[d][:len(in)]
		if sc.dense(rows) {
			for i, v := range data[sc.lo : sc.lo+len(out)] {
				out[i] = float64(v)
			}
		} else {
			for i, r := range rows {
				out[i] = float64(data[r])
			}
		}
		if nulls == nil {
			return out, nil
		}
		marks := sc.null[d][:len(in)]
		for i, r := range rows {
			marks[i] = nulls[r]
		}
		return out, marks
	}
}

// arith applies op element by element; l's vectors are at depth d, r's at
// d+1, and the result overwrites l's. A NULL operand, or a zero divisor,
// makes the result NULL.
func arith(op expr.Op, l, r valKernel, d int) valKernel {
	return func(sc *scratch, in []int32) ([]float64, []bool) {
		a, an := l(sc, in)
		b, bn := r(sc, in)
		out := sc.num[d][:len(in)]
		a, b = a[:len(out)], b[:len(out)]
		switch op {
		case expr.OpAdd:
			for i := range out {
				out[i] = a[i] + b[i]
			}
		case expr.OpSub:
			for i := range out {
				out[i] = a[i] - b[i]
			}
		case expr.OpMul:
			for i := range out {
				out[i] = a[i] * b[i]
			}
		case expr.OpDiv:
			zero := sc.keep[:len(out)]
			for i := range out {
				zero[i] = b[i] == 0
				out[i] = a[i] / b[i]
			}
			an = orMarks(sc.null[d][:len(out)], an, zero)
		}
		return out, orMarks(sc.null[d][:len(out)], an, bn)
	}
}

// orMarks returns the union of two NULL-mark vectors in dst, which a (when
// not nil) already is; nil means no NULLs.
func orMarks(dst, a, b []bool) []bool {
	switch {
	case b == nil:
		return a
	case a == nil:
		copy(dst, b)
	default:
		for i := range dst {
			dst[i] = a[i] || b[i]
		}
	}
	return dst
}

// compare keeps the rows where l op r holds and neither side is NULL. The
// ordering operators follow Value.Compare, which promotes every numeric
// pair to float64 and calls an unordered pair (a NaN) equal.
func compare(op expr.Op, l, r valKernel) selKernel {
	return func(sc *scratch, in, out []int32) []int32 {
		a, an := l(sc, in)
		b, bn := r(sc, in)
		keep := sc.keep[:len(in)]
		a, b = a[:len(keep)], b[:len(keep)]
		switch op {
		case expr.OpEq:
			for i := range keep {
				keep[i] = a[i] == b[i]
			}
		case expr.OpNe:
			for i := range keep {
				keep[i] = a[i] != b[i]
			}
		case expr.OpLt:
			for i := range keep {
				keep[i] = a[i] < b[i]
			}
		case expr.OpLe:
			for i := range keep {
				keep[i] = !(a[i] > b[i])
			}
		case expr.OpGt:
			for i := range keep {
				keep[i] = a[i] > b[i]
			}
		case expr.OpGe:
			for i := range keep {
				keep[i] = !(a[i] < b[i])
			}
		}
		for _, nulls := range [2][]bool{an, bn} {
			if nulls != nil {
				for i := range keep {
					keep[i] = keep[i] && !nulls[i]
				}
			}
		}
		k := 0
		for i, r := range in {
			out[k] = r
			if keep[i] {
				k++
			}
		}
		return out[:k]
	}
}

// intOperand is one side of an integer equality: a column, or a literal.
type intOperand struct {
	data  []int64
	nulls []bool
	side  int
	lit   int64
}

// intOperand resolves an expression whose evaluated value is always
// TypeInt64 — an integer column or a non-NULL integer literal.
func (c *compiler) intOperand(e expr.Expr) (intOperand, bool) {
	switch n := e.(type) {
	case *expr.ColRef:
		col, side := c.column(n.Index)
		if col, ok := col.(*storage.Int64Column); ok {
			return intOperand{data: col.Ints(), nulls: col.Nulls(), side: side}, true
		}
	case *expr.Lit:
		if n.Val.Typ == storage.TypeInt64 && !n.Val.IsNull() {
			return intOperand{lit: n.Val.I}, true
		}
	}
	return intOperand{}, false
}

// intEq compares an integer pair as int64 — Value.Equal does for same-typed
// operands, and beyond 2^53 a float comparison could disagree.
func intEq(l, r intOperand, ne bool) selKernel {
	return func(sc *scratch, in, out []int32) []int32 {
		lr, rr := sc.rowsOf(l.side, in), sc.rowsOf(r.side, in)
		k := 0
		for i, p := range in {
			a, b := l.lit, r.lit
			if l.data != nil {
				a = l.data[lr[i]]
			}
			if r.data != nil {
				b = r.data[rr[i]]
			}
			out[k] = p
			if (a == b) != ne && !(l.nulls != nil && l.nulls[lr[i]]) && !(r.nulls != nil && r.nulls[rr[i]]) {
				k++
			}
		}
		return out[:k]
	}
}

// stringLit returns the literal's string when e is a non-NULL string
// literal.
func stringLit(e expr.Expr) (string, bool) {
	if l, ok := e.(*expr.Lit); ok && l.Val.Typ == storage.TypeString && !l.Val.IsNull() {
		return l.Val.S, true
	}
	return "", false
}

// dictColumn returns the dictionary column e references, if it is one, and
// its side.
func (c *compiler) dictColumn(e expr.Expr) (*storage.StringColumn, int) {
	if ref, ok := e.(*expr.ColRef); ok {
		col, side := c.column(ref.Index)
		d, _ := col.(*storage.StringColumn)
		return d, side
	}
	return nil, 0
}

// stringIn compiles column [NOT] IN (codes) on dictionary codes; column =
// 'lit' and <> 'lit' are the one-code cases. A NULL row (code 0) fails
// every form, as in the evaluator, and so a literal no row holds — looked
// up as code 0 — makes = constant false and <> true for every non-NULL row.
func stringIn(d *storage.StringColumn, side int, codes []uint32, negate bool) selKernel {
	all := d.Codes()
	return func(sc *scratch, in, out []int32) []int32 {
		rows := sc.rowsOf(side, in)
		k := 0
		for i, p := range in {
			c := all[rows[i]]
			found := false
			for _, code := range codes {
				found = found || c == code
			}
			out[k] = p
			if found != negate && c != 0 {
				k++
			}
		}
		return out[:k]
	}
}

// pred compiles a predicate whose selection temporaries start at depth d,
// or returns nil.
func (c *compiler) pred(e expr.Expr, d int) selKernel {
	switch n := e.(type) {
	case *expr.ColRef:
		if n.Typ != storage.TypeBool {
			return nil
		}
		col, side := c.column(n.Index)
		return func(sc *scratch, in, out []int32) []int32 {
			rows := sc.rowsOf(side, in)
			k := 0
			for i, p := range in {
				v := col.Value(int(rows[i]))
				out[k] = p
				if !v.IsNull() && v.B {
					k++
				}
			}
			return out[:k]
		}
	case *expr.Unary:
		// The evaluator's NOT is two-valued: NOT of a NULL or false
		// operand is true, exactly the complement of the operand's rows.
		if n.Op != expr.OpNot {
			return nil
		}
		x := c.pred(n.X, d+1)
		if x == nil {
			return nil
		}
		c.sels = max(c.sels, d+1)
		return func(sc *scratch, in, out []int32) []int32 {
			return mergeKept(in, x(sc, in, sc.sel[d]), nil, out, true)
		}
	case *expr.In:
		// List entries that cannot equal a string — NULLs, other types,
		// strings no row holds — never match in the evaluator either, so
		// they are dropped.
		dict, side := c.dictColumn(n.X)
		if dict == nil {
			return nil
		}
		var codes []uint32
		for _, item := range n.List {
			if _, ok := item.(*expr.Lit); !ok {
				return nil
			}
			if s, ok := stringLit(item); ok {
				if code, found := dict.Lookup(s); found {
					codes = append(codes, code)
				}
			}
		}
		return stringIn(dict, side, codes, n.Negate)
	case *expr.Binary:
		return c.binaryPred(n, d)
	}
	return nil
}

func (c *compiler) binaryPred(n *expr.Binary, d int) selKernel {
	if n.Op == expr.OpAnd || n.Op == expr.OpOr {
		// An OR holds its left rows and the rest at depths d and d+1 while
		// the right side runs, so both sides' temporaries start at d+2.
		sub := d
		if n.Op == expr.OpOr {
			sub = d + 2
			c.sels = max(c.sels, sub)
		}
		l, r := c.pred(n.L, sub), c.pred(n.R, sub)
		if l == nil || r == nil {
			return nil
		}
		if n.Op == expr.OpAnd {
			return func(sc *scratch, in, out []int32) []int32 { return r(sc, l(sc, in, out), out) }
		}
		return func(sc *scratch, in, out []int32) []int32 {
			left := l(sc, in, sc.sel[d])
			rest := mergeKept(in, left, nil, sc.sel[d+1], true)
			return mergeKept(in, left, r(sc, rest, rest), out, false)
		}
	}
	if !n.Op.Comparison() {
		return nil
	}
	if n.Op == expr.OpEq || n.Op == expr.OpNe {
		ne := n.Op == expr.OpNe
		col, lit := n.L, n.R
		if d, _ := c.dictColumn(col); d == nil {
			col, lit = n.R, n.L
		}
		if dict, side := c.dictColumn(col); dict != nil {
			s, ok := stringLit(lit)
			if !ok {
				return nil
			}
			code, _ := dict.Lookup(s)
			return stringIn(dict, side, []uint32{code}, ne)
		}
		if n.L.Type() != storage.TypeFloat64 && n.R.Type() != storage.TypeFloat64 {
			l, lok := c.intOperand(n.L)
			r, rok := c.intOperand(n.R)
			if !lok || !rok {
				return nil
			}
			return intEq(l, r, ne)
		}
	}
	l, r := c.num(n.L, 0), c.num(n.R, 1)
	if l == nil || r == nil {
		return nil
	}
	return compare(n.Op, l, r)
}

// mergeKept walks in with a and b, two disjoint subsequences of it, and
// writes to out the rows found in either — or, with complement set, in
// neither — in in's order. out may be in.
func mergeKept(in, a, b, out []int32, complement bool) []int32 {
	i, j, k := 0, 0, 0
	for _, r := range in {
		kept := false
		if i < len(a) && a[i] == r {
			i++
			kept = true
		} else if j < len(b) && b[j] == r {
			j++
			kept = true
		}
		out[k] = r
		if kept != complement {
			k++
		}
	}
	return out[:k]
}
