package exec

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
)

// The row-at-a-time oracle the morsel path is tested against: the evaluator
// for every predicate and expression, Decide for the samplers, a canonical
// key (groupKeyOf) and a loop over its build rows per join, and
// HTEstimator.Add through accumulate per group, morsel by morsel of the
// scanned table, merged in order — the float order the morsel path
// promises, the distinct sampler's set-aside rows folding after their
// morsel's others. The chain above the bottom is applyNode's.

// oracleRow is one row the oracle's scans and joins produce.
type oracleRow struct {
	vals   []storage.Value
	w      float64
	morsel int  // of the scanned table's grid
	head   bool // set aside by the distinct sampler, so folded last
}

// oracleRun executes root through the oracle.
func oracleRun(t testing.TB, root plan.Node) *Result {
	agg := plan.FindAggregate(root)
	var chain []plan.Node
	bottom := root
	for above := true; above; {
		_, sorted := bottom.(*plan.Sort)
		_, limited := bottom.(*plan.Limit)
		if above = sorted || limited || agg != nil && bottom != plan.Node(agg); above {
			chain, bottom = append(chain, bottom), bottom.Children()[0]
		}
	}
	res := &Result{Schema: bottom.Schema()}
	if agg != nil {
		rows := oracleRows(t, agg.Child, &res.Counters)
		total := map[string]*groupState{}
		for lo := 0; lo < len(rows); {
			hi := lo
			for hi < len(rows) && rows[hi].morsel == rows[lo].morsel {
				hi++
			}
			part := map[string]*groupState{}
			for _, head := range []bool{false, true} {
				for _, r := range rows[lo:hi] {
					if r.head == head {
						oracleFold(t, agg, part, r)
					}
				}
			}
			for k, gs := range part {
				if dst := total[k]; dst != nil {
					mergeGroupState(dst, gs)
				} else {
					total[k] = gs
				}
			}
			lo = hi
		}
		res.Rows, res.Details = finalizeGroups(agg, total)
	} else {
		p := bottom.(*plan.Project)
		weighted := false
		for _, r := range oracleRows(t, p.Child, &res.Counters) {
			vals := make([]storage.Value, len(p.Exprs))
			for j, e := range p.Exprs {
				vals[j] = oracleEval(t, e, r.vals)
			}
			res.Rows, res.Weights = append(res.Rows, vals), append(res.Weights, r.w)
			weighted = weighted || r.w != 1
		}
		if !weighted {
			res.Weights = nil
		}
	}
	for i := len(chain) - 1; i >= 0; i-- {
		if err := applyNode(chain[i], res); err != nil {
			t.Fatal(err)
		}
	}
	return res
}

// oracleFold accumulates one row into its group of part.
func oracleFold(t testing.TB, agg *plan.Aggregate, part map[string]*groupState, r oracleRow) {
	key := make([]storage.Value, len(agg.GroupBy))
	for i, g := range agg.GroupBy {
		key[i] = oracleEval(t, g, r.vals)
	}
	gs := part[groupKeyOf(key)]
	if gs == nil {
		gs = newGroupState(groupKeyOf(key), key, len(agg.Aggs))
		part[gs.key] = gs
	}
	gs.n++
	for j, spec := range agg.Aggs {
		if err := accumulate(gs.aggs[j], spec, expr.ValuesRow(r.vals), r.w); err != nil {
			t.Fatal(err)
		}
	}
}

func oracleEval(t testing.TB, e expr.Expr, vals []storage.Value) storage.Value {
	v, err := e.Eval(expr.ValuesRow(vals))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// oracleKey is a row's join key, or false when a part is NULL.
func oracleKey(t testing.TB, keys []expr.Expr, vals []storage.Value) (string, bool) {
	parts := make([]storage.Value, len(keys))
	for i, k := range keys {
		if parts[i] = oracleEval(t, k, vals); parts[i].IsNull() {
			return "", false
		}
	}
	return groupKeyOf(parts), true
}

// oracleRows produces the rows of the plan below a terminal, in scan order.
func oracleRows(t testing.TB, n plan.Node, c *Counters) []oracleRow {
	switch n := n.(type) {
	case *plan.Scan:
		return oracleScan(t, n, c)
	case *plan.Filter:
		var out []oracleRow
		for _, r := range oracleRows(t, n.Child, c) {
			if ok, err := expr.EvalBool(n.Pred, expr.ValuesRow(r.vals)); err != nil {
				t.Fatal(err)
			} else if ok {
				out = append(out, r)
			}
		}
		return out
	case *plan.Join:
		left := oracleRows(t, n.Left, c)
		built := map[string][]oracleRow{}
		for _, r := range oracleRows(t, n.Right, c) {
			if k, ok := oracleKey(t, n.RightKeys, r.vals); ok {
				built[k] = append(built[k], r)
			}
		}
		var out []oracleRow
		for _, l := range left {
			k, _ := oracleKey(t, n.LeftKeys, l.vals) // "" is no key's
			for _, r := range built[k] {
				vals := append(append([]storage.Value{}, l.vals...), r.vals...)
				keep := n.Residual == nil
				if !keep {
					keep, _ = expr.EvalBool(n.Residual, expr.ValuesRow(vals))
				}
				if keep {
					out = append(out, oracleRow{vals: vals, w: l.w * r.w, morsel: l.morsel, head: l.head})
				}
			}
		}
		return out
	}
	t.Fatalf("oracle: unexpected %T", n)
	return nil
}

// oracleScan reads a scan row by row.
func oracleScan(t testing.TB, s *plan.Scan, c *Counters) []oracleRow {
	b, err := bindScan(s)
	if err != nil {
		t.Fatal(err)
	}
	table := s.Table.Snapshot()
	st, err := stageSampler(s, b.keyIdx, table)
	if err != nil {
		t.Fatal(err)
	}
	c.Passes++
	var rows []int
	morselRows, bs := orderedMorselRows, table.BlockSize()
	if r := s.Range; r != nil {
		for _, row := range r.Order[r.Lo:r.Hi] {
			rows = append(rows, int(row))
		}
	} else {
		for morselRows = bs; morselRows < minMorselRows; morselRows += bs {
		}
		for row := range table.NumRows() {
			rows = append(rows, row)
		}
	}
	var out []oracleRow
	var met map[string]int // rows of the morsel the sampler has met, by stratum
	blockKeep, blockWeight := true, 1.0
	for i, row := range rows {
		if i%morselRows == 0 {
			met = map[string]int{}
		}
		if st.blockSamp != nil && row%bs == 0 {
			d := st.blockSamp.DecideBlock(row / bs)
			blockKeep, blockWeight = d.Keep, d.Weight
			if d.Keep {
				c.BlocksScanned++
			} else {
				c.BlocksSkipped++
			}
		}
		if !blockKeep {
			continue
		}
		c.RowsScanned++
		if s.Filter != nil {
			ok, err := expr.EvalBool(s.Filter, mappedRow{v: &rowView{tables: []*storage.Table{table}}, idx: row})
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
		}
		r := oracleRow{w: blockWeight, morsel: i / morselRows}
		if st.sampler != nil {
			key := ""
			if st.keyer != nil {
				key = st.keyer.Key(row)
			}
			d := st.sampler.Decide(row, key)
			met[key]++
			if !d.Keep {
				continue
			}
			r.w *= d.Weight
			r.head = st.distinct != nil && met[key] <= s.Sample.KeepThreshold
		}
		if b.weightIdx >= 0 {
			if wv := table.Column(b.weightIdx).Value(row); !wv.IsNull() {
				r.w *= wv.AsFloat()
			}
		}
		c.RowsEmitted++
		for _, idx := range b.outIdx {
			r.vals = append(r.vals, table.Column(idx).Value(row))
		}
		out = append(out, r)
	}
	return out
}
