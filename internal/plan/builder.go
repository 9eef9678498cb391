package plan

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// Build turns a parsed statement into an optimized logical plan over the
// catalog. The same builder serves exact and approximate execution; AQP
// engines additionally set sampler specs on scans (directly or via
// TABLESAMPLE clauses carried by the statement).
func Build(stmt *sqlparse.SelectStmt, cat *storage.Catalog) (Node, error) {
	b := &builder{cat: cat}
	root, err := b.build(stmt)
	if err != nil {
		return nil, err
	}
	return Optimize(root), nil
}

type builder struct {
	cat *storage.Catalog
}

func (b *builder) build(stmt *sqlparse.SelectStmt) (Node, error) {
	// Collect every column name referenced anywhere, for scan pruning.
	referenced := collectReferencedColumns(stmt)

	// Base scans.
	scan, err := b.makeScan(stmt.From, referenced)
	if err != nil {
		return nil, err
	}
	var root Node = scan

	for _, jc := range stmt.Joins {
		rscan, err := b.makeScan(jc.Table, referenced)
		if err != nil {
			return nil, err
		}
		on := expr.Clone(jc.On)
		lk, rk, residual, err := splitJoinKeys(on, root.Schema(), rscan.Schema())
		if err != nil {
			return nil, err
		}
		root = NewJoin(root, rscan, lk, rk, residual)
	}

	if stmt.Where != nil {
		pred := expr.Clone(stmt.Where)
		if err := expr.Bind(pred, root.Schema()); err != nil {
			return nil, err
		}
		root = &Filter{Child: root, Pred: pred}
	}

	aggs := stmt.Aggregates()
	if len(aggs) > 0 || len(stmt.GroupBy) > 0 {
		root, err = b.buildAggregate(stmt, root, aggs)
		if err != nil {
			return nil, err
		}
	} else {
		root, err = b.buildProjection(stmt, root)
		if err != nil {
			return nil, err
		}
	}

	if len(stmt.OrderBy) > 0 {
		keys := make([]SortKey, len(stmt.OrderBy))
		for i, o := range stmt.OrderBy {
			k, err := orderKey(stmt, o.Expr, root.Schema())
			if err != nil {
				return nil, err
			}
			keys[i] = SortKey{Expr: k, Desc: o.Desc}
		}
		root = &Sort{Child: root, Keys: keys}
	}
	if stmt.Limit >= 0 {
		root = &Limit{Child: root, N: stmt.Limit}
	}
	return root, nil
}

// orderKey binds one ORDER BY key over the select items' output. A key
// holding an aggregate has no value of its own after the projection; it
// names the select item with the same canonical text, so ORDER BY SUM(x)
// sorts like that item's alias, and any other such key is refused.
func orderKey(stmt *sqlparse.SelectStmt, key expr.Expr, out storage.Schema) (expr.Expr, error) {
	if !stmt.OrderByAggregates() || !sqlparse.ContainsAggregate(key) {
		k := expr.Clone(key)
		if err := expr.Bind(k, out); err != nil {
			return nil, fmt.Errorf("plan: ORDER BY: %w", err)
		}
		return k, nil
	}
	text := key.String()
	for i, it := range stmt.Items {
		if it.Expr.String() == text {
			return &expr.ColRef{Name: out[i].Name, Index: i, Typ: out[i].Type}, nil
		}
	}
	return nil, fmt.Errorf("plan: ORDER BY %s: an aggregate key must be a select item", text)
}

func (b *builder) makeScan(tr sqlparse.TableRef, referenced map[string]bool) (*Scan, error) {
	t, err := b.cat.Table(tr.Name)
	if err != nil {
		return nil, err
	}
	s := NewScan(t)
	// Prune to referenced columns (keep all if none referenced, e.g.
	// SELECT COUNT(*) still needs zero columns but an empty projection
	// means "keep all", so project to the narrowest single column).
	var proj []string
	for _, def := range t.Schema() {
		if referenced[def.Name] {
			proj = append(proj, def.Name)
		}
	}
	if proj == nil && len(t.Schema()) > 0 {
		proj = []string{t.Schema()[0].Name}
	}
	s.SetProjection(proj)
	if tr.Sample != nil {
		spec := tr.Sample.Spec
		s.Sample = &spec
	}
	return s, nil
}

// collectReferencedColumns gathers all column names appearing in the
// statement's expressions and sampler key lists.
func collectReferencedColumns(stmt *sqlparse.SelectStmt) map[string]bool {
	ref := make(map[string]bool)
	add := func(e expr.Expr) {
		if e == nil {
			return
		}
		for _, c := range expr.Columns(e) {
			ref[c] = true
		}
	}
	for _, it := range stmt.Items {
		add(it.Expr)
	}
	add(stmt.Where)
	add(stmt.Having)
	for _, g := range stmt.GroupBy {
		add(g)
	}
	for _, o := range stmt.OrderBy {
		add(o.Expr)
	}
	for _, j := range stmt.Joins {
		add(j.On)
	}
	addSample := func(tr sqlparse.TableRef) {
		if tr.Sample != nil {
			for _, c := range tr.Sample.Spec.KeyColumns {
				ref[c] = true
			}
		}
	}
	addSample(stmt.From)
	for _, j := range stmt.Joins {
		addSample(j.Table)
	}
	return ref
}

// splitJoinKeys splits an ON condition into equi-join key pairs and a
// residual predicate. Key sides are bound to their respective schemas;
// the residual is bound to the concatenated schema.
func splitJoinKeys(on expr.Expr, lschema, rschema storage.Schema) (lk, rk []expr.Expr, residual expr.Expr, err error) {
	conjuncts := SplitAnd(on)
	var rest []expr.Expr
	for _, c := range conjuncts {
		if eq, ok := c.(*expr.Binary); ok && eq.Op == expr.OpEq {
			lcols, rcols := expr.Columns(eq.L), expr.Columns(eq.R)
			switch {
			case coveredBy(lcols, lschema) && coveredBy(rcols, rschema):
				if err := expr.Bind(eq.L, lschema); err != nil {
					return nil, nil, nil, err
				}
				if err := expr.Bind(eq.R, rschema); err != nil {
					return nil, nil, nil, err
				}
				lk = append(lk, eq.L)
				rk = append(rk, eq.R)
				continue
			case coveredBy(lcols, rschema) && coveredBy(rcols, lschema):
				if err := expr.Bind(eq.R, lschema); err != nil {
					return nil, nil, nil, err
				}
				if err := expr.Bind(eq.L, rschema); err != nil {
					return nil, nil, nil, err
				}
				lk = append(lk, eq.R)
				rk = append(rk, eq.L)
				continue
			}
		}
		rest = append(rest, c)
	}
	if len(lk) == 0 {
		return nil, nil, nil, fmt.Errorf("plan: join requires at least one equi-key in ON clause")
	}
	if len(rest) > 0 {
		residual = CombineAnd(rest)
		both := append(append(storage.Schema{}, lschema...), rschema...)
		if err := expr.Bind(residual, both); err != nil {
			return nil, nil, nil, err
		}
	}
	return lk, rk, residual, nil
}

func coveredBy(cols []string, schema storage.Schema) bool {
	for _, c := range cols {
		if schema.ColumnIndex(c) < 0 {
			return false
		}
	}
	return true
}

// aggColumnName returns the hidden output column name of aggregate slot i.
func aggColumnName(i int) string { return fmt.Sprintf("__agg%d", i) }

func (b *builder) buildAggregate(stmt *sqlparse.SelectStmt, child Node, aggs []*sqlparse.AggExpr) (Node, error) {
	inSchema := child.Schema()

	// Group-by expressions, named after matching select-item aliases when
	// possible.
	groupNames := make([]string, len(stmt.GroupBy))
	groupExprs := make([]expr.Expr, len(stmt.GroupBy))
	groupKeyByText := make(map[string]string) // expr text -> output column name
	for i, g := range stmt.GroupBy {
		ge := expr.Clone(g)
		if err := expr.Bind(ge, inSchema); err != nil {
			return nil, fmt.Errorf("plan: GROUP BY: %w", err)
		}
		name := g.String()
		for _, it := range stmt.Items {
			if it.Alias != "" && it.Expr != nil && it.Expr.String() == g.String() {
				name = it.Alias
				break
			}
		}
		groupExprs[i] = ge
		groupNames[i] = name
		groupKeyByText[g.String()] = name
	}

	// Aggregate specs.
	specs := make([]AggSpec, len(aggs))
	for i, a := range aggs {
		spec := AggSpec{Func: a.Func, Star: a.Star, Distinct: a.Distinct, Param: a.Param, Name: aggColumnName(i)}
		if a.Arg != nil {
			arg := expr.Clone(a.Arg)
			if err := expr.Bind(arg, inSchema); err != nil {
				return nil, fmt.Errorf("plan: aggregate %s: %w", a, err)
			}
			spec.Arg = arg
		}
		specs[i] = spec
	}
	aggNode := NewAggregate(child, groupExprs, groupNames, specs)
	var root Node = aggNode

	// HAVING: rewrite aggregates and group refs, filter above aggregation.
	if stmt.Having != nil {
		h, err := rewritePostAgg(stmt.Having, groupKeyByText)
		if err != nil {
			return nil, err
		}
		if err := expr.Bind(h, aggNode.Schema()); err != nil {
			return nil, fmt.Errorf("plan: HAVING: %w", err)
		}
		root = &Filter{Child: root, Pred: h}
	}

	// Final projection over the aggregate output.
	exprs := make([]expr.Expr, len(stmt.Items))
	names := make([]string, len(stmt.Items))
	for i, it := range stmt.Items {
		e, err := rewritePostAgg(it.Expr, groupKeyByText)
		if err != nil {
			return nil, err
		}
		if err := expr.Bind(e, aggNode.Schema()); err != nil {
			return nil, fmt.Errorf("plan: select item %d: %w", i, err)
		}
		exprs[i] = e
		names[i] = it.Name(i)
	}
	return NewProject(root, exprs, names), nil
}

func (b *builder) buildProjection(stmt *sqlparse.SelectStmt, child Node) (Node, error) {
	exprs := make([]expr.Expr, len(stmt.Items))
	names := make([]string, len(stmt.Items))
	for i, it := range stmt.Items {
		e := expr.Clone(it.Expr)
		if err := expr.Bind(e, child.Schema()); err != nil {
			return nil, fmt.Errorf("plan: select item %d: %w", i, err)
		}
		exprs[i] = e
		names[i] = it.Name(i)
	}
	return NewProject(child, exprs, names), nil
}

// rewritePostAgg clones e, replacing AggExpr nodes with references to
// their aggregate output columns and any subtree textually equal to a
// GROUP BY expression with a reference to the group column.
func rewritePostAgg(e expr.Expr, groupKeyByText map[string]string) (expr.Expr, error) {
	if e == nil {
		return nil, nil
	}
	var err error
	out := expr.Map(e, func(n expr.Expr) expr.Expr {
		if name, ok := groupKeyByText[n.String()]; ok {
			return &expr.ColRef{Name: name, Index: -1}
		}
		switch n := n.(type) {
		case *sqlparse.AggExpr:
			return &expr.ColRef{Name: aggColumnName(n.Slot), Index: -1}
		case *expr.ColRef:
			if err == nil {
				err = fmt.Errorf("plan: column %q must appear in GROUP BY or inside an aggregate", n.Name)
			}
			return n
		}
		return nil
	})
	return out, err
}

// SplitAnd flattens a conjunction into its conjuncts.
func SplitAnd(e expr.Expr) []expr.Expr {
	if b, ok := e.(*expr.Binary); ok && b.Op == expr.OpAnd {
		return append(SplitAnd(b.L), SplitAnd(b.R)...)
	}
	return []expr.Expr{e}
}

// ColumnCompare reads a comparison of a bare column with a literal, the
// column on the left: `5 < x` reads as x > 5. ok is false for any other
// expression.
func ColumnCompare(e expr.Expr) (col *expr.ColRef, op expr.Op, lit storage.Value, ok bool) {
	b, isB := e.(*expr.Binary)
	if !isB || !b.Op.Comparison() {
		return nil, 0, storage.Value{}, false
	}
	if c, isC := b.L.(*expr.ColRef); isC {
		if l, isL := b.R.(*expr.Lit); isL {
			return c, b.Op, l.Val, true
		}
	}
	c, isC := b.R.(*expr.ColRef)
	l, isL := b.L.(*expr.Lit)
	if !isC || !isL {
		return nil, 0, storage.Value{}, false
	}
	op = b.Op
	switch op {
	case expr.OpLt:
		op = expr.OpGt
	case expr.OpLe:
		op = expr.OpGe
	case expr.OpGt:
		op = expr.OpLt
	case expr.OpGe:
		op = expr.OpLe
	}
	return c, op, l.Val, true
}

// CombineAnd rebuilds a conjunction from conjuncts (nil for empty input).
func CombineAnd(list []expr.Expr) expr.Expr {
	if len(list) == 0 {
		return nil
	}
	out := list[0]
	for _, e := range list[1:] {
		out = &expr.Binary{Op: expr.OpAnd, L: out, R: e}
	}
	return out
}
