package exec

import (
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// joinCatalog holds a fact table jf of three morsels and a dimension jd
// whose keys meet jf's the ways a probe can get wrong: an integer against a
// float holding integral (and a non-integral) values, strings whose two
// dictionaries number them differently, NULLs on both sides, and duplicate
// build keys.
func joinCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	fact := storage.NewTableWithBlockSize("jf", storage.Schema{
		{Name: "fk", Type: storage.TypeInt64},
		{Name: "fs", Type: storage.TypeString},
		{Name: "fv", Type: storage.TypeFloat64},
	}, 256)
	rng := rand.New(rand.NewSource(29))
	names := []string{"ant", "bee", "cat", "dog", "eel"}
	rows := make([][]storage.Value, 20_000)
	for i := range rows {
		fk, fs := storage.Int64(int64(rng.Intn(12))), storage.Str(names[rng.Intn(len(names))])
		if rng.Intn(17) == 0 {
			fk = storage.NullValue(storage.TypeInt64)
		}
		if rng.Intn(19) == 0 {
			fs = storage.NullValue(storage.TypeString)
		}
		rows[i] = []storage.Value{fk, fs, storage.Float64(rng.NormFloat64() * 100)}
	}
	if err := fact.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	dim := storage.NewTable("jd", storage.Schema{
		{Name: "dk", Type: storage.TypeFloat64},
		{Name: "ds", Type: storage.TypeString},
		{Name: "dw", Type: storage.TypeFloat64},
	})
	for _, r := range []struct {
		k  any
		s  any
		dw float64
	}{
		{3.0, "eel", 0.5}, {1.0, "cat", 2}, {3.0, "bee", -1.25}, {nil, "ant", 7}, {2.5, "dog", 3},
		{7.0, nil, 1}, {1.0, "cat", 0.1}, {11.0, "zebra", 4}, {0.0, "eel", 9}, {7.0, "ant", -3},
	} {
		k, s := storage.NullValue(storage.TypeFloat64), storage.NullValue(storage.TypeString)
		if r.k != nil {
			k = storage.Float64(r.k.(float64))
		}
		if r.s != nil {
			s = storage.Str(r.s.(string))
		}
		if err := dim.AppendRow(k, s, storage.Float64(r.dw)); err != nil {
			t.Fatal(err)
		}
	}
	cat := storage.NewCatalog()
	for _, tbl := range []*storage.Table{fact, dim} {
		if err := cat.Add(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// TestJoinKeySemantics: every key shape the probe resolves differently —
// an integer against integral floats, strings across two dictionaries,
// NULL keys on either side, duplicate build keys fanning out under sampled
// weights on both sides, an ON residual, a composite key, an empty build
// side and a global aggregate over an empty join, plus a row-returning
// join — returns the oracle's rows, weights, details and counters, to the
// bit, at one to four workers.
func TestJoinKeySemantics(t *testing.T) {
	cat := joinCatalog(t)
	for _, sql := range []string{
		"SELECT dw, COUNT(*), SUM(fv), AVG(fv) FROM jf JOIN jd ON fk = dk GROUP BY dw",
		"SELECT fs, COUNT(*), SUM(fv * dw) FROM jf JOIN jd ON fs = ds GROUP BY fs",
		"SELECT ds, COUNT(*), SUM(fv) FROM jf TABLESAMPLE BERNOULLI (50) JOIN jd TABLESAMPLE BERNOULLI (50) ON fk = dk GROUP BY ds",
		"SELECT fs, COUNT(*), SUM(fv) FROM jf JOIN jd ON fk = dk AND fv > dw * 10 GROUP BY fs",
		"SELECT COUNT(*), SUM(fv), AVG(dw) FROM jf JOIN jd ON fk = dk AND fs = ds",
		"SELECT fs, COUNT(*), SUM(fv) FROM jf JOIN jd ON fk + 0.5 = dk GROUP BY fs",
		"SELECT fs, COUNT(*) FROM jf JOIN jd ON fk = dk WHERE dw > 100 GROUP BY fs",
		"SELECT COUNT(*), SUM(fv), MIN(dw) FROM jf JOIN jd ON fk = dk WHERE dw > 100",
		"SELECT fk, fs, dw, fv FROM jf TABLESAMPLE BERNOULLI (50) JOIN jd ON fs = ds WHERE fv > 250 ORDER BY fv LIMIT 40",
	} {
		want := oracleRun(t, buildPlan(t, cat, sql))
		for _, workers := range []int{1, 2, 3, 4} {
			got, err := RunParallel(buildPlan(t, cat, sql), workers)
			if err != nil {
				t.Fatalf("W=%d %q: %v", workers, sql, err)
			}
			if err := sameResult(got, want); err != nil {
				t.Errorf("W=%d %q: morsel path vs oracle: %v", workers, sql, err)
			}
		}
	}
	res := runSQL(t, cat, "SELECT COUNT(*), SUM(fv), MIN(dw) FROM jf JOIN jd ON fk = dk WHERE dw > 100")
	if res.NumRows() != 1 || f(t, res, 0, 0) != 0 || !res.Value(0, 1).IsNull() || res.Counters.Passes != 2 {
		t.Errorf("a global aggregate over an empty join: %v, counters %+v", res.Rows, res.Counters)
	}
}
