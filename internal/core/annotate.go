package core

import (
	"math"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/stats"
)

// annotate converts a raw executor result into an annotated core.Result:
// per-item confidence intervals are derived from the aggregate-level
// Horvitz–Thompson details and propagated through composite item
// expressions with interval arithmetic. The joint confidence is allocated
// across (slots × groups) estimates by Boole's inequality, matching the
// "all estimates simultaneously within the bound" error semantics.
func annotate(stmt *sqlparse.SelectStmt, res *exec.Result, spec ErrorSpec,
	tech Technique, guarantee Guarantee) *Result {

	out := &Result{
		Columns:   res.Schema.Names(),
		Rows:      res.Rows,
		Technique: tech,
		Guarantee: guarantee,
		Spec:      spec,
	}
	aggs := stmt.Aggregates()
	slots := len(aggs)
	groups := res.NumRows()
	conf := confidencePerEstimate(spec, slots, groups)

	specOK := true
	out.Items = make([][]ItemResult, len(res.Rows))
	for i, row := range res.Rows {
		var detail *exec.GroupDetail
		if res.Details != nil {
			detail = res.Details[i]
		}
		items := make([]ItemResult, len(stmt.Items))
		for j, sel := range stmt.Items {
			name := sel.Name(j)
			if j < len(row) {
				items[j] = ItemResult{Name: name, Value: row[j]}
			} else {
				items[j] = ItemResult{Name: name}
			}
			iv, isAgg, ok := itemInterval(sel.Expr, detail, conf)
			items[j].IsAggregate = isAgg
			if isAgg && ok {
				items[j].HasCI = true
				items[j].CI = iv
				items[j].RelHalfWidth = iv.RelHalfWidth(row[j].AsFloat())
				if items[j].RelHalfWidth > spec.RelError {
					specOK = false
				}
			} else if isAgg && !ok {
				specOK = false
			}
			// Expose the CLT moments for direct sampled aggregates so a
			// contract pilot can size stage two from this result alone.
			if ae, isAE := sel.Expr.(*sqlparse.AggExpr); isAE && detail != nil && ae.Slot < len(detail.Aggs) {
				if d := detail.Aggs[ae.Slot]; d.Supported && d.Weighted && !d.HasInterval {
					items[j].Variance = d.Variance
					items[j].SampleN = d.N
				}
			}
		}
		out.Items[i] = items
	}
	out.Diagnostics.Counters = res.Counters
	out.Diagnostics.SpecSatisfied = specOK && groups > 0
	if guarantee == GuaranteeExact {
		out.Diagnostics.SpecSatisfied = true
	}
	return out
}

// itemInterval computes a confidence interval for a select-item expression
// by interval arithmetic over its aggregate leaves. ok is false when no
// defensible interval exists (non-linear aggregates, mixed group+aggregate
// items, non-numeric operations).
func itemInterval(e expr.Expr, detail *exec.GroupDetail, conf float64) (iv stats.Interval, isAgg, ok bool) {
	switch n := e.(type) {
	case *sqlparse.AggExpr:
		if detail == nil || n.Slot >= len(detail.Aggs) {
			return stats.Interval{}, true, false
		}
		d := detail.Aggs[n.Slot]
		if !d.Supported {
			return stats.Interval{}, true, false
		}
		if d.HasInterval {
			// Explicit interval (PERCENTILE's DKW bound); degenerate when
			// the sample is the whole population.
			return stats.Interval{Lo: d.Lo, Hi: d.Hi, Confidence: 0.95}, true, true
		}
		if !d.Weighted {
			// Exact aggregate: degenerate interval.
			return stats.Interval{Lo: d.Estimate, Hi: d.Estimate, Confidence: 1}, true, true
		}
		return stats.CLTInterval(d.Estimate, d.Variance, d.N, conf), true, true
	case *expr.Lit:
		if n.Val.IsNull() || !n.Val.Typ.Numeric() {
			return stats.Interval{}, false, false
		}
		x := n.Val.AsFloat()
		return stats.Interval{Lo: x, Hi: x, Confidence: 1}, false, true
	case *expr.ColRef:
		// A bare group column: exact, but its value is not needed for
		// interval propagation of pure-aggregate siblings. Mixed items
		// (group + aggregate arithmetic) are unsupported.
		return stats.Interval{}, false, false
	case *expr.Unary:
		ivx, isAggX, okX := itemInterval(n.X, detail, conf)
		if n.Op == expr.OpNeg && okX {
			return stats.Interval{Lo: -ivx.Hi, Hi: -ivx.Lo, Confidence: ivx.Confidence}, isAggX, true
		}
		return stats.Interval{}, isAggX, false
	case *expr.Binary:
		ivL, aggL, okL := itemInterval(n.L, detail, conf)
		ivR, aggR, okR := itemInterval(n.R, detail, conf)
		isAgg = aggL || aggR
		if !okL || !okR {
			return stats.Interval{}, isAgg, false
		}
		c := math.Min(nonZeroConf(ivL), nonZeroConf(ivR))
		switch n.Op {
		case expr.OpAdd:
			return stats.Interval{Lo: ivL.Lo + ivR.Lo, Hi: ivL.Hi + ivR.Hi, Confidence: c}, isAgg, true
		case expr.OpSub:
			return stats.Interval{Lo: ivL.Lo - ivR.Hi, Hi: ivL.Hi - ivR.Lo, Confidence: c}, isAgg, true
		case expr.OpMul:
			return stats.CombineIntervalsProduct(ivL, ivR), isAgg, true
		case expr.OpDiv:
			return stats.CombineIntervalsRatio(ivL, ivR), isAgg, true
		}
		return stats.Interval{}, isAgg, false
	case *expr.Call, *expr.In:
		// Function of aggregates: no closed-form propagation implemented.
		hasAgg := false
		e.Walk(func(x expr.Expr) {
			if _, isA := x.(*sqlparse.AggExpr); isA {
				hasAgg = true
			}
		})
		return stats.Interval{}, hasAgg, false
	}
	return stats.Interval{}, false, false
}

func nonZeroConf(iv stats.Interval) float64 {
	if iv.Confidence == 0 {
		return 1
	}
	return iv.Confidence
}

// sampleFraction computes emitted/scanned rows as the realized sampling
// fraction of an execution.
func sampleFraction(c exec.Counters, totalRows int64) float64 {
	if totalRows <= 0 {
		return 1
	}
	return float64(c.RowsEmitted) / float64(totalRows)
}
