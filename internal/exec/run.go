package exec

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/trace"
)

// RunParallel executes a logical plan with the given worker count.
func RunParallel(root plan.Node, workers int) (*Result, error) {
	return RunParallelContext(context.Background(), root, workers)
}

// RunParallelContext executes a logical plan under ctx with the given
// worker count (≤ 0 resolves via ResolveWorkers). Every plan runs on the
// morsel path: the aggregate's partial, or a plan without one's projected
// rows, then the chain above. A cancelled or expired context stops the scan
// at the next block with ctx.Err().
func RunParallelContext(ctx context.Context, root plan.Node, workers int) (*Result, error) {
	return run(ctx, root, nil, workers)
}

// run executes root: the rows at its bottom — the aggregate's groups, taken
// from part when it is set, or a plan without an aggregate's projected
// rows — then the chain above them. Each node of the chain keeps a span,
// nested as the plan is, timed inclusively of the work below it.
func run(ctx context.Context, root plan.Node, part *AggPartial, workers int) (*Result, error) {
	agg := plan.FindAggregate(root)
	if part != nil && agg == nil {
		return nil, fmt.Errorf("exec: plan is not gatherable: it has no aggregate to take the partial")
	}
	var chain []plan.Node // top first
	bottom := root
	for above := true; above; {
		switch bottom.(type) {
		case *plan.Limit, *plan.Sort:
		case *plan.Filter, *plan.Project:
			above = agg != nil
		default:
			above = false
		}
		if above {
			chain, bottom = append(chain, bottom), bottom.Children()[0]
		}
	}
	spans := make([]*trace.Span, len(chain))
	for i, n := range chain {
		spans[i], ctx = startOp(ctx, n, "")
	}
	t0 := time.Now()
	res := &Result{Schema: bottom.Schema()}
	if agg != nil {
		part, sp, err := aggGroups(ctx, agg, part, workers, "")
		if err != nil {
			return nil, err
		}
		res.Counters = part.Counters
		res.Rows, res.Details = finalizeGroups(agg, part)
		sp.AddTime(time.Since(t0))
		sp.AddRows(int64(len(res.Rows)))
	} else if err := runRows(ctx, bottom, chain, res, workers); err != nil {
		return nil, err
	}
	for i := len(chain) - 1; i >= 0; i-- {
		if err := applyNode(chain[i], res); err != nil {
			return nil, err
		}
		spans[i].AddTime(time.Since(t0))
		spans[i].AddRows(int64(len(res.Rows)))
	}
	return res, nil
}

// startOp opens an operator's span, named by its EXPLAIN line and
// suffix; an untraced query builds no name.
func startOp(ctx context.Context, n plan.Node, suffix string) (*trace.Span, context.Context) {
	if !trace.Enabled(ctx) {
		return nil, ctx
	}
	return trace.StartOp(ctx, n.Explain()+suffix)
}

// aggGroups opens the aggregate's span, labelled with how its groups are
// obtained, and returns them as a partial: the one handed in (the gather
// side of a scatter), or the rows below folded on the morsel path. step
// marks a run that stops at the partial.
func aggGroups(ctx context.Context, a *plan.Aggregate, part *AggPartial, workers int, step string) (*AggPartial, *trace.Span, error) {
	if part != nil {
		sp, _ := startOp(ctx, a, " [gather]")
		sp.SetAttrInt("groups", int64(part.NumGroups()))
		return part, sp, nil
	}
	sp, ctx := startOp(ctx, a, " [morsel"+step+"]")
	var counters Counters
	op, err := newMorselRun(ctx, a.Child, &counters, workers, sp)
	if err != nil {
		return nil, nil, err
	}
	op.agg = a
	groups, _, err := op.run()
	if err != nil {
		return nil, sp, err
	}
	part = groups.partial()
	part.Counters = counters
	return part, sp, nil
}

// runRows runs a plan without an aggregate: its projection's rows, in scan
// order. A LIMIT right above it, with no ORDER BY between, lets the scan
// stop once it holds the rows.
func runRows(ctx context.Context, bottom plan.Node, chain []plan.Node, res *Result, workers int) error {
	p, ok := bottom.(*plan.Project)
	if !ok {
		return fmt.Errorf("exec: plan has neither an aggregate nor a projection: %s", bottom.Explain())
	}
	t0 := time.Now()
	sp, ctx := startOp(ctx, p, " [morsel]")
	op, err := newMorselRun(ctx, p.Child, &res.Counters, workers, sp)
	if err != nil {
		return err
	}
	op.project = p
	if len(chain) > 0 {
		if l, ok := chain[len(chain)-1].(*plan.Limit); ok {
			op.limit = l.N
		}
	}
	_, rows, err := op.run()
	if err != nil {
		return err
	}
	for _, e := range rows {
		res.Rows, res.Weights = append(res.Rows, e.vals), append(res.Weights, e.w)
	}
	if !slices.ContainsFunc(res.Weights, func(w float64) bool { return w != 1 }) {
		res.Weights = nil // all 1
	}
	sp.AddTime(time.Since(t0))
	sp.AddRows(int64(len(rows)))
	return nil
}

// applyNode runs one node of the chain over the materialized rows below
// it; weights and group details follow their rows.
func applyNode(n plan.Node, res *Result) error {
	res.Schema = n.Schema()
	switch t := n.(type) {
	case *plan.Filter:
		var keep []int
		held := new(expr.ValuesRow) // one Row for the pass: a ValuesRow passed by value boxes per call
		for i, row := range res.Rows {
			*held = row
			ok, err := expr.EvalBool(t.Pred, held)
			if err != nil {
				return err
			}
			if ok {
				keep = append(keep, i)
			}
		}
		res.pick(keep)
	case *plan.Project:
		if passesThrough(t) {
			return nil
		}
		width := len(t.Exprs)
		cells, held := make([]storage.Value, len(res.Rows)*width), new(expr.ValuesRow)
		for i, row := range res.Rows {
			*held = row
			vals := cells[i*width : (i+1)*width : (i+1)*width]
			for j, e := range t.Exprs {
				v, err := e.Eval(held)
				if err != nil {
					return err
				}
				vals[j] = v
			}
			res.Rows[i] = vals
		}
	case *plan.Sort:
		return sortRows(res, t.Keys)
	case *plan.Limit:
		if len(res.Rows) > t.N {
			res.pick(firstN(t.N))
		}
	}
	return nil
}

// passesThrough reports whether p's expressions are its child's columns,
// all of them and in order: its rows are then the child's rows.
func passesThrough(p *plan.Project) bool {
	if len(p.Exprs) != len(p.Child.Schema()) {
		return false
	}
	for j, e := range p.Exprs {
		if ref, ok := e.(*expr.ColRef); !ok || ref.Index != j {
			return false
		}
	}
	return true
}

// pick keeps the rows at idx, in idx's order, with their weights and
// details.
func (r *Result) pick(idx []int) {
	r.Rows, r.Weights, r.Details = permute(r.Rows, idx), permute(r.Weights, idx), permute(r.Details, idx)
}

// permute returns s's elements at idx, or nil for none.
func permute[T any](s []T, idx []int) []T {
	if s == nil || len(idx) == 0 {
		return nil
	}
	out := make([]T, len(idx))
	for i, j := range idx {
		out[i] = s[j]
	}
	return out
}

// sortRows orders the rows by the sort keys, stably.
func sortRows(r *Result, keys []plan.SortKey) error {
	width := len(keys)
	vals, held := make([]storage.Value, len(r.Rows)*width), new(expr.ValuesRow)
	for i, row := range r.Rows {
		*held = row
		for k, sk := range keys {
			v, err := sk.Expr.Eval(held)
			if err != nil {
				return err
			}
			vals[i*width+k] = v
		}
	}
	idx := firstN(len(r.Rows))
	sort.SliceStable(idx, func(a, b int) bool {
		for k, sk := range keys {
			if c := vals[idx[a]*width+k].Compare(vals[idx[b]*width+k]); c != 0 {
				return (c < 0) != sk.Desc
			}
		}
		return false
	})
	r.pick(idx)
	return nil
}

// firstN returns 0, 1, …, n-1.
func firstN(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
