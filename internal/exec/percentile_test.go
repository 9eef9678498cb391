package exec

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

func percentileCatalog(t *testing.T, n int) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	tbl := storage.NewTable("p", storage.Schema{
		{Name: "g", Type: storage.TypeInt64},
		{Name: "v", Type: storage.TypeFloat64},
	})
	// v = 0..n-1 shuffled deterministically; true q-quantile ≈ q·(n-1).
	for i := 0; i < n; i++ {
		v := float64((i*7919 + 13) % n) // a permutation for n coprime with 7919
		if err := tbl.AppendRow(storage.Int64(int64(i%4)), storage.Float64(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Add(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestPercentileExact(t *testing.T) {
	cat := percentileCatalog(t, 10000)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		res := runSQL(t, cat, fmt.Sprintf("SELECT PERCENTILE(v, %g) FROM p", q))
		got := f(t, res, 0, 0)
		want := q * 9999
		if math.Abs(got-want) > 10 {
			t.Errorf("q=%v: got %v, want ~%v", q, got, want)
		}
		d := res.Details[0].Aggs[0]
		if !d.Supported || !d.HasInterval {
			t.Fatalf("percentile detail = %+v", d)
		}
		if got < d.Lo || got > d.Hi {
			t.Errorf("estimate outside its own interval")
		}
	}
}

func TestPercentileSampled(t *testing.T) {
	cat := percentileCatalog(t, 50000)
	trials := 20
	covered := 0
	want := 0.5 * 49999
	for tr := 0; tr < trials; tr++ {
		stmt, err := sqlparse.Parse("SELECT PERCENTILE(v, 0.5) FROM p")
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Build(stmt, cat)
		if err != nil {
			t.Fatal(err)
		}
		plan.ApplySampler(p, "p", sample.Spec{
			Kind: sample.KindUniformRow, Rate: 0.05, Seed: int64(tr) * 31})
		res, err := RunParallel(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Rows[0][0].AsFloat()
		if math.Abs(got-want)/want > 0.1 {
			t.Errorf("trial %d: sampled median %v vs %v", tr, got, want)
		}
		d := res.Details[0].Aggs[0]
		if want >= d.Lo && want <= d.Hi {
			covered++
		}
	}
	// The DKW interval at 95% should cover nearly always.
	if covered < trials*8/10 {
		t.Errorf("DKW interval covered %d/%d", covered, trials)
	}
}

func TestPercentileByGroup(t *testing.T) {
	cat := percentileCatalog(t, 8000)
	res := runSQL(t, cat, "SELECT g, PERCENTILE(v, 0.5) AS med FROM p GROUP BY g ORDER BY g")
	if res.NumRows() != 4 {
		t.Fatalf("groups = %d", res.NumRows())
	}
	for i := 0; i < 4; i++ {
		med := f(t, res, i, 1)
		if math.Abs(med-4000) > 400 {
			t.Errorf("group %d median = %v", i, med)
		}
	}
}

func TestPercentileNulls(t *testing.T) {
	cat := storage.NewCatalog()
	tbl := storage.NewTable("n", storage.Schema{{Name: "x", Type: storage.TypeFloat64}})
	for _, v := range []storage.Value{
		storage.Float64(1), storage.NullValue(storage.TypeFloat64), storage.Float64(3)} {
		if err := tbl.AppendRow(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Add(tbl); err != nil {
		t.Fatal(err)
	}
	res := runSQL(t, cat, "SELECT PERCENTILE(x, 0.5) FROM n")
	if got := f(t, res, 0, 0); got != 1 && got != 3 {
		t.Errorf("median of {1,3} = %v", got)
	}
	// All-NULL input yields NULL.
	empty := runSQL(t, cat, "SELECT PERCENTILE(x, 0.5) FROM n WHERE x > 100")
	if !empty.Rows[0][0].IsNull() {
		t.Error("empty percentile must be NULL")
	}
}
