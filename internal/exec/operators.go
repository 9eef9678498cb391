package exec

import (
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
)

// filterOp applies a residual predicate, preserving weights and details.
type filterOp struct {
	child Operator
	pred  expr.Expr
}

// Schema implements Operator.
func (op *filterOp) Schema() storage.Schema { return op.child.Schema() }

// Open implements Operator.
func (op *filterOp) Open() error { return op.child.Open() }

// Close implements Operator.
func (op *filterOp) Close() error { return op.child.Close() }

// Next implements Operator.
func (op *filterOp) Next() (*Batch, error) {
	for {
		in, err := op.child.Next()
		if err != nil || in == nil {
			return nil, err
		}
		out := &Batch{}
		for i, row := range in.Rows {
			ok, err := expr.EvalBool(op.pred, expr.ValuesRow(row))
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			out.Rows = append(out.Rows, row)
			if in.Weights != nil {
				out.Weights = append(out.Weights, in.Weights[i])
			}
			if in.Details != nil {
				out.Details = append(out.Details, in.Details[i])
			}
		}
		if out.Len() > 0 {
			return out, nil
		}
	}
}

// projectOp computes output expressions row by row.
type projectOp struct {
	child  Operator
	node   *plan.Project
	schema storage.Schema
}

// Schema implements Operator.
func (op *projectOp) Schema() storage.Schema { return op.schema }

// Open implements Operator.
func (op *projectOp) Open() error { return op.child.Open() }

// Close implements Operator.
func (op *projectOp) Close() error { return op.child.Close() }

// Next implements Operator.
func (op *projectOp) Next() (*Batch, error) {
	in, err := op.child.Next()
	if err != nil || in == nil {
		return nil, err
	}
	out := &Batch{Weights: in.Weights, Details: in.Details}
	out.Rows = make([][]storage.Value, 0, in.Len())
	for _, row := range in.Rows {
		vals := make([]storage.Value, len(op.node.Exprs))
		r := expr.ValuesRow(row)
		for j, e := range op.node.Exprs {
			v, err := e.Eval(r)
			if err != nil {
				return nil, err
			}
			vals[j] = v
		}
		out.Rows = append(out.Rows, vals)
	}
	return out, nil
}

// hashJoinOp is an inner equi hash join: the right child is built into a
// hash table, the left child probes it. Output weight is the product of
// the input weights — the Horvitz–Thompson weight of a joined pair under
// independent sampling of the inputs.
type hashJoinOp struct {
	node   *plan.Join
	left   Operator
	right  Operator
	schema storage.Schema

	built   bool
	ht      map[string][]buildEntry
	pending *Batch
}

type buildEntry struct {
	row    []storage.Value
	weight float64
}

// Schema implements Operator.
func (op *hashJoinOp) Schema() storage.Schema { return op.schema }

// Open implements Operator.
func (op *hashJoinOp) Open() error {
	if err := op.left.Open(); err != nil {
		return err
	}
	return op.right.Open()
}

// Close implements Operator.
func (op *hashJoinOp) Close() error {
	if err := op.left.Close(); err != nil {
		_ = op.right.Close()
		return err
	}
	return op.right.Close()
}

func (op *hashJoinOp) build() error {
	op.ht = make(map[string][]buildEntry)
	keyBuf := make([]storage.Value, len(op.node.RightKeys))
	for {
		b, err := op.right.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for i, row := range b.Rows {
			r := expr.ValuesRow(row)
			null := false
			for k, ke := range op.node.RightKeys {
				v, err := ke.Eval(r)
				if err != nil {
					return err
				}
				if v.IsNull() {
					null = true
					break
				}
				keyBuf[k] = v
			}
			if null {
				continue
			}
			key := groupKeyOf(keyBuf)
			op.ht[key] = append(op.ht[key], buildEntry{row: row, weight: b.Weight(i)})
		}
	}
	op.built = true
	return nil
}

// Next implements Operator.
func (op *hashJoinOp) Next() (*Batch, error) {
	if !op.built {
		if err := op.build(); err != nil {
			return nil, err
		}
	}
	keyBuf := make([]storage.Value, len(op.node.LeftKeys))
	for {
		in, err := op.left.Next()
		if err != nil || in == nil {
			return nil, err
		}
		out := &Batch{}
		for i, lrow := range in.Rows {
			r := expr.ValuesRow(lrow)
			null := false
			for k, ke := range op.node.LeftKeys {
				v, err := ke.Eval(r)
				if err != nil {
					return nil, err
				}
				if v.IsNull() {
					null = true
					break
				}
				keyBuf[k] = v
			}
			if null {
				continue
			}
			matches := op.ht[groupKeyOf(keyBuf)]
			if len(matches) == 0 {
				continue
			}
			lw := in.Weight(i)
			for _, m := range matches {
				joined := make([]storage.Value, 0, len(lrow)+len(m.row))
				joined = append(joined, lrow...)
				joined = append(joined, m.row...)
				if op.node.Residual != nil {
					ok, err := expr.EvalBool(op.node.Residual, expr.ValuesRow(joined))
					if err != nil {
						return nil, err
					}
					if !ok {
						continue
					}
				}
				out.Rows = append(out.Rows, joined)
				w := lw * m.weight
				if out.Weights == nil && w != 1 {
					out.Weights = make([]float64, len(out.Rows)-1)
					for j := range out.Weights {
						out.Weights[j] = 1
					}
				}
				if out.Weights != nil {
					out.Weights = append(out.Weights, w)
				}
			}
		}
		if out.Len() > 0 {
			return out, nil
		}
	}
}

// groupKeyOf builds the canonical composite key of a value tuple.
func groupKeyOf(vals []storage.Value) string {
	if len(vals) == 0 {
		return ""
	}
	if len(vals) == 1 {
		return vals[0].GroupKey()
	}
	key := vals[0].GroupKey()
	for _, v := range vals[1:] {
		key += "\x1f" + v.GroupKey()
	}
	return key
}

// sortOp materializes and orders its input.
type sortOp struct {
	node  *plan.Sort
	child Operator

	done bool
	out  *Batch
}

// Schema implements Operator.
func (op *sortOp) Schema() storage.Schema { return op.child.Schema() }

// Open implements Operator.
func (op *sortOp) Open() error { return op.child.Open() }

// Close implements Operator.
func (op *sortOp) Close() error { return op.child.Close() }

// Next implements Operator.
func (op *sortOp) Next() (*Batch, error) {
	if op.done {
		return nil, nil
	}
	all := &Batch{}
	hasWeights := false
	for {
		b, err := op.child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		for i, row := range b.Rows {
			all.Rows = append(all.Rows, row)
			all.Weights = append(all.Weights, b.Weight(i))
			if b.Weights != nil {
				hasWeights = true
			}
			if b.Details != nil {
				all.Details = append(all.Details, b.Details[i])
			} else {
				all.Details = append(all.Details, nil)
			}
		}
	}
	if err := sortBatch(all, op.node.Keys); err != nil {
		return nil, err
	}
	if !hasWeights {
		all.Weights = nil
	}
	anyDetail := false
	for _, d := range all.Details {
		if d != nil {
			anyDetail = true
			break
		}
	}
	if !anyDetail {
		all.Details = nil
	}
	op.done = true
	if all.Len() == 0 {
		return nil, nil
	}
	return all, nil
}

// limitOp truncates its input to N rows.
type limitOp struct {
	child Operator
	n     int
	seen  int
}

// Schema implements Operator.
func (op *limitOp) Schema() storage.Schema { return op.child.Schema() }

// Open implements Operator.
func (op *limitOp) Open() error { return op.child.Open() }

// Close implements Operator.
func (op *limitOp) Close() error { return op.child.Close() }

// Next implements Operator.
func (op *limitOp) Next() (*Batch, error) {
	if op.seen >= op.n {
		return nil, nil
	}
	in, err := op.child.Next()
	if err != nil || in == nil {
		return nil, err
	}
	remain := op.n - op.seen
	if in.Len() <= remain {
		op.seen += in.Len()
		return in, nil
	}
	out := &Batch{Rows: in.Rows[:remain]}
	if in.Weights != nil {
		out.Weights = in.Weights[:remain]
	}
	if in.Details != nil {
		out.Details = in.Details[:remain]
	}
	op.seen = op.n
	return out, nil
}
