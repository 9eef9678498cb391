package core

import (
	"context"
	"testing"

	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/storage"
)

// TestGradePairsByGroupKey: rows pair by the canonical key of their
// non-aggregate items, not by position and not by printed text, so a NULL
// group and the string 'NULL' stay apart, and a row either side lacks is
// counted, not paired with a neighbour.
func TestGradePairsByGroupKey(t *testing.T) {
	mk := func(rows ...[]storage.Value) *Result {
		r := &Result{Columns: []string{"g", "s"}}
		for _, row := range rows {
			r.Rows = append(r.Rows, row)
			r.Items = append(r.Items, []ItemResult{
				{Name: "g", Value: row[0]},
				{Name: "s", Value: row[1], IsAggregate: true, HasCI: true,
					CI: stats.Interval{Lo: row[1].AsFloat() - 1, Hi: row[1].AsFloat() + 1, Confidence: 0.95}},
			})
		}
		return r
	}
	null, str := storage.NullValue(storage.TypeString), storage.Str("NULL")
	claimed := mk([]storage.Value{str, storage.Float64(100)})
	truth := mk([]storage.Value{null, storage.Float64(5)}, []storage.Value{str, storage.Float64(100)})
	g := Grade(claimed, truth)
	if g.Unmatched != 1 || len(g.Cells) != 1 {
		t.Fatalf("grading = %+v, want one cell and one unmatched row", g)
	}
	if c := g.Cells[0]; c.Col != 1 || c.RelError != 0 || !c.HasCI || !c.Covered {
		t.Fatalf("cell = %+v, want 'NULL' graded against 'NULL': covered, error 0", c)
	}
	if g.MaxRelError() != 1 {
		t.Fatalf("MaxRelError = %v with a row unmatched, want 1", g.MaxRelError())
	}

	// Order does not matter; rows with one key pair as a multiset.
	a, b := storage.Str("a"), storage.Str("b")
	claimed = mk([]storage.Value{b, storage.Float64(20)}, []storage.Value{a, storage.Float64(9)}, []storage.Value{a, storage.Float64(11)})
	truth = mk([]storage.Value{a, storage.Float64(10)}, []storage.Value{a, storage.Float64(10)}, []storage.Value{b, storage.Float64(20)})
	g = Grade(claimed, truth)
	if g.Unmatched != 0 || len(g.Cells) != 3 || g.MaxRelError() != 0.1 {
		t.Fatalf("grading = %+v (max %v), want three cells, max error 0.1", g, g.MaxRelError())
	}
	if g := Grade(mk(), truth); g.Unmatched != 3 || g.MaxRelError() != 1 {
		t.Fatalf("empty answer graded %+v, want every truth row unmatched", g)
	}
}

// TestProfilePairsGroupsByKey: a top-1 profiling statement whose sampled
// top group differs from the exact one must profile the sample at error 1.
// Paired by position, the sample's top group b (999) was graded against
// the exact top group a (1 000) and the sample certified at 0.001; a
// grouped statement at a 5 % spec was then answered from it a-priori with
// group a at half its truth.
func TestProfilePairsGroupsByKey(t *testing.T) {
	tbl := storage.NewTable("t", storage.Schema{{Name: "g", Type: storage.TypeString}, {Name: "x", Type: storage.TypeFloat64}})
	var batch [][]storage.Value
	// Group a: 2 000 rows summing to 1 000, one of them an outlier of
	// 500.25 that a 64- or 256-row stratum is unlikely to hold.
	batch = append(batch, []storage.Value{storage.Str("a"), storage.Float64(500.25)})
	for range 1999 {
		batch = append(batch, []storage.Value{storage.Str("a"), storage.Float64(0.25)})
	}
	// Group b: 50 rows summing to 999, every one kept by any stratum cap.
	for range 50 {
		batch = append(batch, []storage.Value{storage.Str("b"), storage.Float64(19.98)})
	}
	if err := tbl.AppendRows(batch); err != nil {
		t.Fatal(err)
	}
	cat := storage.NewCatalog()
	if err := cat.Add(tbl); err != nil {
		t.Fatal(err)
	}
	e := NewOfflineEngine(cat, DefaultOfflineConfig())
	if err := e.BuildSamples("t", [][]string{{"g"}}); err != nil {
		t.Fatal(err)
	}
	if err := e.ProfileQuery("SELECT g, SUM(x) AS s FROM t GROUP BY g ORDER BY s DESC LIMIT 1"); err != nil {
		t.Fatal(err)
	}
	stmt, err := sqlparse.Parse("SELECT g, SUM(x) FROM t GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), stmt, ErrorSpec{RelError: 0.05, Confidence: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diagnostics.FellBackToExact || res.Guarantee != GuaranteeExact {
		t.Fatalf("answered from a sample (guarantee %s): %v", res.Guarantee, res.Diagnostics.Messages)
	}
	for _, s := range e.Samples("t") {
		if s.Cap == 64 || s.Cap == 256 {
			if p := s.Profile["t|g"]; p != 1 {
				t.Errorf("sample %s profiled at %v, want 1", s.Name, p)
			}
		}
	}
}
