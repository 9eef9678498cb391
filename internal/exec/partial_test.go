package exec

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/storage"
)

// TestPartialFinalizeMatchesDirect: computing the aggregate as a partial
// and finalizing it must be bit-identical to the direct execution path —
// both fold the same group states in the same order, and the gather chain
// rebuilds the same above-aggregate operators.
func TestPartialFinalizeMatchesDirect(t *testing.T) {
	cat := parallelCatalog(t, 40_000)
	queries := append([]string{}, parallelQueries...)
	queries = append(queries,
		"SELECT g, SUM(v) AS s FROM ev GROUP BY g HAVING SUM(v) > 1000 ORDER BY g",
		"SELECT g, COUNT(*) FROM ev GROUP BY g ORDER BY g LIMIT 3",
	)
	for _, sql := range queries {
		direct, err := RunParallel(buildPlan(t, cat, sql), 4)
		if err != nil {
			t.Fatalf("direct %q: %v", sql, err)
		}
		p := buildPlan(t, cat, sql)
		part, err := RunAggPartialContext(context.Background(), p, 4)
		if err != nil {
			t.Fatalf("partial %q: %v", sql, err)
		}
		// A single partial merges as a move: no float is touched.
		merged := MergeAggPartials([]*AggPartial{nil, part, nil})
		if merged != part {
			t.Fatalf("%q: single-partial merge did not reuse the partial", sql)
		}
		got, err := FinalizeAggPartial(context.Background(), p, merged)
		if err != nil {
			t.Fatalf("finalize %q: %v", sql, err)
		}
		assertResultsBitIdentical(t, sql, direct, got)
	}
}

// TestMergedPartialsMatchWholeTable: running partials over two disjoint
// halves of the data and merging them must agree with the whole-table run
// (to float tolerance: the split changes the summation bracketing).
func TestMergedPartialsMatchWholeTable(t *testing.T) {
	cat := parallelCatalog(t, 20_000)
	whole, err := cat.Table("ev")
	if err != nil {
		t.Fatal(err)
	}
	halves := []*storage.Table{
		storage.NewTableWithBlockSize("ev", whole.Schema().Clone(), whole.BlockSize()),
		storage.NewTableWithBlockSize("ev", whole.Schema().Clone(), whole.BlockSize()),
	}
	cut := whole.NumRows() / 2
	for i := 0; i < whole.NumRows(); i++ {
		dst := 0
		if i >= cut {
			dst = 1
		}
		if err := halves[dst].AppendRow(whole.Row(i)...); err != nil {
			t.Fatal(err)
		}
	}

	sql := "SELECT g, COUNT(*), SUM(v), AVG(v) FROM ev GROUP BY g ORDER BY g"
	direct, err := RunParallel(buildPlan(t, cat, sql), 4)
	if err != nil {
		t.Fatal(err)
	}

	var parts []*AggPartial
	for _, h := range halves {
		hcat := storage.NewCatalog()
		if err := hcat.Add(h); err != nil {
			t.Fatal(err)
		}
		part, err := RunAggPartialContext(context.Background(), buildPlan(t, hcat, sql), 2)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part)
	}
	merged := MergeAggPartials(parts)
	got, err := FinalizeAggPartial(context.Background(), buildPlan(t, cat, sql), merged)
	if err != nil {
		t.Fatal(err)
	}

	if got.NumRows() != direct.NumRows() {
		t.Fatalf("row count: merged %d vs direct %d", got.NumRows(), direct.NumRows())
	}
	for i := range direct.Rows {
		for j := range direct.Rows[i] {
			dv, gv := direct.Value(i, j), got.Value(i, j)
			if dv.Typ == storage.TypeFloat64 && !dv.IsNull() {
				d, g := dv.AsFloat(), gv.AsFloat()
				if math.Abs(d-g) > 1e-9*math.Max(1, math.Abs(d)) {
					t.Errorf("row %d col %d: merged %v vs direct %v", i, j, g, d)
				}
				continue
			}
			if dv != gv {
				t.Errorf("row %d col %d: merged %v vs direct %v", i, j, gv, dv)
			}
		}
	}
}

// TestGatherableShapes: only single-aggregate chains take a partial; a
// plan without an aggregate is refused, not answered from its scan.
func TestGatherableShapes(t *testing.T) {
	cat := parallelCatalog(t, 1_000)
	for sql, want := range map[string]bool{
		"SELECT SUM(v) FROM ev": true,
		"SELECT g, SUM(v) FROM ev GROUP BY g HAVING SUM(v) > 0 ORDER BY g LIMIT 2": true,
		"SELECT k, v FROM ev": false, // no aggregate
	} {
		_, err := FinalizeAggPartial(context.Background(), buildPlan(t, cat, sql), new(AggPartial))
		if got := err == nil; got != want {
			t.Errorf("FinalizeAggPartial(%q) error = %v, want gatherable = %v", sql, err, want)
		}
		if err != nil && !strings.Contains(err.Error(), "not gatherable") {
			t.Errorf("FinalizeAggPartial(%q) error = %v, want a not-gatherable error", sql, err)
		}
	}
}

// TestScaleForCoverage: scaling a partial rescales SUM/COUNT estimates by
// r (variances by r²) and leaves AVG untouched, end to end through
// finalize.
func TestScaleForCoverage(t *testing.T) {
	cat := parallelCatalog(t, 10_000)
	sql := "SELECT COUNT(*) AS c, SUM(v) AS s, AVG(v) AS a FROM ev TABLESAMPLE BERNOULLI (20)"
	p := buildPlan(t, cat, sql)
	base, err := RunAggPartialContext(context.Background(), p, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := FinalizeAggPartial(context.Background(), buildPlan(t, cat, sql), base)
	if err != nil {
		t.Fatal(err)
	}

	scaled, err := RunAggPartialContext(context.Background(), p, 2)
	if err != nil {
		t.Fatal(err)
	}
	scaled.ScaleForCoverage(2)
	got, err := FinalizeAggPartial(context.Background(), buildPlan(t, cat, sql), scaled)
	if err != nil {
		t.Fatal(err)
	}

	refDet, gotDet := ref.Details[0], got.Details[0]
	// COUNT and SUM double, with 4× variance.
	for _, j := range []int{0, 1} {
		if math.Abs(gotDet.Aggs[j].Estimate-2*refDet.Aggs[j].Estimate) > 1e-6*math.Abs(refDet.Aggs[j].Estimate) {
			t.Errorf("agg %d estimate %v, want 2·%v", j, gotDet.Aggs[j].Estimate, refDet.Aggs[j].Estimate)
		}
		if math.Abs(gotDet.Aggs[j].Variance-4*refDet.Aggs[j].Variance) > 1e-6*math.Abs(refDet.Aggs[j].Variance) {
			t.Errorf("agg %d variance %v, want 4·%v", j, gotDet.Aggs[j].Variance, refDet.Aggs[j].Variance)
		}
	}
	// AVG is a ratio: invariant (bitwise, r = 2).
	if math.Float64bits(gotDet.Aggs[2].Estimate) != math.Float64bits(refDet.Aggs[2].Estimate) {
		t.Errorf("avg estimate changed: %v vs %v", gotDet.Aggs[2].Estimate, refDet.Aggs[2].Estimate)
	}
	if math.Float64bits(gotDet.Aggs[2].Variance) != math.Float64bits(refDet.Aggs[2].Variance) {
		t.Errorf("avg variance changed: %v vs %v", gotDet.Aggs[2].Variance, refDet.Aggs[2].Variance)
	}
}

// assertResultsBitIdentical requires identical rows (bitwise for floats)
// and identical per-group statistical details.
func assertResultsBitIdentical(t *testing.T, sql string, want, got *Result) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%q: %d rows vs %d", sql, got.NumRows(), want.NumRows())
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			wv, gv := want.Value(i, j), got.Value(i, j)
			if wv.Typ == storage.TypeFloat64 && !wv.IsNull() && !gv.IsNull() {
				if math.Float64bits(wv.AsFloat()) != math.Float64bits(gv.AsFloat()) {
					t.Fatalf("%q row %d col %d: %v vs %v (bits differ)", sql, i, j, gv, wv)
				}
				continue
			}
			if wv != gv {
				t.Fatalf("%q row %d col %d: %v vs %v", sql, i, j, gv, wv)
			}
		}
	}
	if len(want.Details) != len(got.Details) {
		t.Fatalf("%q: %d details vs %d", sql, len(got.Details), len(want.Details))
	}
	for i := range want.Details {
		wd, gd := want.Details[i], got.Details[i]
		if wd.Key != gd.Key || wd.GroupN != gd.GroupN || len(wd.Aggs) != len(gd.Aggs) {
			t.Fatalf("%q detail %d: %+v vs %+v", sql, i, gd, wd)
		}
		for j := range wd.Aggs {
			if math.Float64bits(wd.Aggs[j].Estimate) != math.Float64bits(gd.Aggs[j].Estimate) ||
				math.Float64bits(wd.Aggs[j].Variance) != math.Float64bits(gd.Aggs[j].Variance) {
				t.Fatalf("%q detail %d agg %d: %+v vs %+v", sql, i, j, gd.Aggs[j], wd.Aggs[j])
			}
		}
	}
}
