package exec

import (
	"context"
	"fmt"

	"repro/internal/plan"
	"repro/internal/trace"
)

// aggSource says where a plan's Aggregate node gets its group states —
// the one step that differs between executions of the same plan. The rows
// below the aggregate and the chain above it (HAVING filter, projection,
// sort, limit) are built the same way whatever the source.
type aggSource struct {
	// part, when set, was computed and merged elsewhere (the gather side of
	// a scatter) and is only finalized here; the rows below are not run.
	part *AggPartial
	// workers > 0 lets a morselEligible aggregate compute its partial on
	// the morsel path; 0 is the serial interpreter.
	workers int
}

// build compiles a logical plan into a physical operator tree. All scans
// share the provided counters and check ctx between batches, so long scans
// observe cancellation and deadlines at BatchSize granularity. When the
// context carries a trace span, every operator is wrapped with span
// accounting under a child span named by the plan node.
func build(ctx context.Context, n plan.Node, counters *Counters, src aggSource) (Operator, error) {
	if a, ok := n.(*plan.Aggregate); ok {
		// The aggregate opens its own span: the label says how it runs.
		op, err := newAggOp(ctx, a, counters, src, "")
		if err != nil {
			return nil, err
		}
		return wrapOp(op, op.sp), nil
	}
	sp, cctx := trace.StartOp(ctx, n.Explain())
	var err error
	child := func(c plan.Node) Operator {
		if err != nil {
			return nil
		}
		var op Operator
		op, err = build(cctx, c, counters, src)
		return op
	}
	var op Operator
	switch t := n.(type) {
	case *plan.Scan:
		if src.part != nil {
			return nil, fmt.Errorf("exec: plan is not gatherable: scan of %s is not below an aggregate", t.TableName)
		}
		op, err = newScanOp(cctx, t, counters)
	case *plan.Filter:
		op = &filterOp{child: child(t.Child), pred: t.Pred}
	case *plan.Project:
		op = &projectOp{child: child(t.Child), node: t, schema: t.Schema()}
	case *plan.Join:
		op = &hashJoinOp{node: t, left: child(t.Left), right: child(t.Right), schema: t.Schema()}
	case *plan.Sort:
		op = &sortOp{node: t, child: child(t.Child)}
	case *plan.Limit:
		op = &limitOp{child: child(t.Child), n: t.N}
	default:
		err = fmt.Errorf("exec: unknown plan node %T", n)
	}
	if err != nil {
		return nil, err
	}
	return wrapOp(op, sp), nil
}

// Run executes a logical plan to completion on the serial operators,
// materializing the result. It is the interpreter reference the kernel and
// morsel paths are tested against.
func Run(root plan.Node) (*Result, error) {
	return run(context.Background(), root, aggSource{})
}

// run builds root around the given aggregate source, drains it to a
// materialized Result under ctx, and closes it. Scans check the context
// between batches, so a deadline or cancellation aborts the query mid-scan
// with ctx.Err() rather than running to completion.
func run(ctx context.Context, root plan.Node, src aggSource) (*Result, error) {
	var counters Counters
	if src.part != nil {
		counters = src.part.Counters
	}
	op, err := build(ctx, root, &counters, src)
	if err != nil {
		return nil, err
	}
	if err := op.Open(); err != nil {
		return nil, err
	}
	res := &Result{Schema: root.Schema()}
	for {
		if err := ctx.Err(); err != nil {
			_ = op.Close()
			return nil, err
		}
		b, err := op.Next()
		if err != nil {
			_ = op.Close()
			return nil, err
		}
		if b == nil {
			break
		}
		for i, row := range b.Rows {
			res.Rows = append(res.Rows, row)
			if b.Weights != nil {
				if res.Weights == nil {
					res.Weights = make([]float64, len(res.Rows)-1)
					for j := range res.Weights {
						res.Weights[j] = 1
					}
				}
				res.Weights = append(res.Weights, b.Weights[i])
			} else if res.Weights != nil {
				res.Weights = append(res.Weights, 1)
			}
			if b.Details != nil {
				if res.Details == nil {
					res.Details = make([]*GroupDetail, len(res.Rows)-1)
				}
				res.Details = append(res.Details, b.Details[i])
			} else if res.Details != nil {
				res.Details = append(res.Details, nil)
			}
		}
	}
	if err := op.Close(); err != nil {
		return nil, err
	}
	res.Counters = counters
	return res, nil
}
