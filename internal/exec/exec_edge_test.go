package exec

import (
	"math"
	"testing"

	"repro/internal/storage"
)

// bigCatalog builds a table large enough to span many batches and blocks.
func bigCatalog(t *testing.T, rows, blockSize int) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	tbl := storage.NewTableWithBlockSize("big", storage.Schema{
		{Name: "k", Type: storage.TypeInt64},
		{Name: "v", Type: storage.TypeFloat64},
	}, blockSize)
	batch := make([][]storage.Value, 0, 4096)
	for i := 0; i < rows; i++ {
		batch = append(batch, []storage.Value{
			storage.Int64(int64(i % 97)), storage.Float64(float64(i%1000) / 10)})
		if len(batch) == cap(batch) {
			if err := tbl.AppendRows(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if err := tbl.AppendRows(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Add(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestMultiBatchScan(t *testing.T) {
	// Rows spanning several morsels and a ragged last block; counts must be
	// exact.
	const rows = 3*minMorselRows + 17
	cat := bigCatalog(t, rows, 64)
	res := runSQL(t, cat, "SELECT COUNT(*) FROM big")
	if got := f(t, res, 0, 0); got != rows {
		t.Fatalf("count = %v", got)
	}
}

func TestWeightsSurviveSortAndLimit(t *testing.T) {
	cat := bigCatalog(t, 20000, 256)
	// Group-by over a sampled scan, then sort and limit: the Details
	// (needed for CIs) must follow the rows through both operators.
	res := runSQL(t, cat, `SELECT k, SUM(v) AS s FROM big TABLESAMPLE BERNOULLI (20)
		GROUP BY k ORDER BY s DESC LIMIT 5`)
	if res.NumRows() != 5 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	if res.Details == nil {
		t.Fatal("details lost through sort/limit")
	}
	for i, d := range res.Details {
		if d == nil {
			t.Fatalf("row %d detail nil", i)
		}
		if !d.Aggs[0].Weighted {
			t.Errorf("row %d should be weighted", i)
		}
	}
	// Sorted descending on the estimate.
	for i := 1; i < res.NumRows(); i++ {
		if f(t, res, i, 1) > f(t, res, i-1, 1) {
			t.Fatal("not sorted")
		}
	}
}

func TestDetailsSurviveHaving(t *testing.T) {
	cat := bigCatalog(t, 20000, 256)
	res := runSQL(t, cat, `SELECT k, COUNT(*) AS n FROM big TABLESAMPLE BERNOULLI (50)
		GROUP BY k HAVING COUNT(*) > 50`)
	if res.NumRows() == 0 {
		t.Fatal("having filtered everything")
	}
	if res.Details == nil || res.Details[0] == nil {
		t.Fatal("details lost through having filter")
	}
}

func TestBiLevelScanSkipsBlocks(t *testing.T) {
	cat := bigCatalog(t, 50000, 500) // 100 blocks
	res := runSQL(t, cat, "SELECT COUNT(*), SUM(v) FROM big TABLESAMPLE BILEVEL (20, 10)")
	c := res.Counters
	if c.BlocksSkipped == 0 {
		t.Fatal("bilevel must skip blocks")
	}
	if c.BlocksScanned+c.BlocksSkipped != 100 {
		t.Fatalf("blocks = %+v", c)
	}
	// Rows scanned only from kept blocks.
	if c.RowsScanned != c.BlocksScanned*500 {
		t.Fatalf("rows scanned %d from %d blocks", c.RowsScanned, c.BlocksScanned)
	}
	// HT count estimate within 35% of 50000 at this tiny effective size.
	got := f(t, res, 0, 0)
	if math.Abs(got-50000)/50000 > 0.35 {
		t.Errorf("bilevel count estimate = %v", got)
	}
}

func TestScanFilterPlusSamplerOrder(t *testing.T) {
	// The distinct sampler must see only qualifying rows: a group that is
	// large pre-filter but tiny post-filter must still be kept whole.
	cat := storage.NewCatalog()
	tbl := storage.NewTable("t", storage.Schema{
		{Name: "g", Type: storage.TypeInt64},
		{Name: "flag", Type: storage.TypeBool},
	})
	// Group 1: 1000 rows, only 3 with flag=true.
	for i := 0; i < 1000; i++ {
		if err := tbl.AppendRow(storage.Int64(1), storage.Bool(i < 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Add(tbl); err != nil {
		t.Fatal(err)
	}
	res := runSQL(t, cat, `SELECT g, COUNT(*) AS n FROM t TABLESAMPLE DISTINCT (1, 30) ON (g)
		WHERE flag = true GROUP BY g`)
	if res.NumRows() != 1 {
		t.Fatalf("group lost: %d rows", res.NumRows())
	}
	// All 3 qualifying rows pass through the keep window with weight 1:
	// the count is exact.
	if f(t, res, 0, 1) != 3 {
		t.Errorf("count = %v, want exactly 3 (filter-then-sample ordering)", f(t, res, 0, 1))
	}
}

// TestLimitStopsInStorageOrder: a LIMIT with no ORDER BY returns the first
// rows in storage order at any worker count, and the scan stops claiming
// morsels once the finished prefix holds them: the counters are those of
// the first morsel alone, whatever ran beyond it.
func TestLimitStopsInStorageOrder(t *testing.T) {
	cat := bigCatalog(t, 5*minMorselRows, 512)
	var one *Result
	for _, workers := range []int{1, 4} {
		res, err := RunParallel(buildPlan(t, cat, "SELECT v FROM big LIMIT 5"), workers)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 5 {
			t.Fatalf("W=%d: %d rows", workers, res.NumRows())
		}
		for i := range 5 {
			if got, want := f(t, res, i, 0), float64(i%1000)/10; got != want {
				t.Errorf("W=%d: row %d = %v, want %v (storage order)", workers, i, got, want)
			}
		}
		if c := res.Counters; c.RowsScanned != minMorselRows || c.Passes != 1 {
			t.Errorf("W=%d: counters %+v, want one morsel of %d rows", workers, c, minMorselRows)
		}
		if one == nil {
			one = res
		} else if err := sameResult(res, one); err != nil {
			t.Errorf("W=4 vs W=1: %v", err)
		}
	}
	if res := runSQL(t, cat, "SELECT v FROM big LIMIT 0"); res.NumRows() != 0 || res.Counters.RowsScanned != 0 {
		t.Errorf("LIMIT 0: %d rows, counters %+v", res.NumRows(), res.Counters)
	}
}

func TestJoinNullKeysDropped(t *testing.T) {
	cat := storage.NewCatalog()
	l := storage.NewTable("l", storage.Schema{{Name: "lk", Type: storage.TypeInt64}})
	r := storage.NewTable("r", storage.Schema{{Name: "rk", Type: storage.TypeInt64}})
	if err := l.AppendRow(storage.Int64(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendRow(storage.NullValue(storage.TypeInt64)); err != nil {
		t.Fatal(err)
	}
	if err := r.AppendRow(storage.Int64(1)); err != nil {
		t.Fatal(err)
	}
	if err := r.AppendRow(storage.NullValue(storage.TypeInt64)); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(l); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(r); err != nil {
		t.Fatal(err)
	}
	res := runSQL(t, cat, "SELECT COUNT(*) FROM l JOIN r ON lk = rk")
	if f(t, res, 0, 0) != 1 {
		t.Fatalf("NULL join keys must not match: count = %v", f(t, res, 0, 0))
	}
}

func TestGroupByNullValues(t *testing.T) {
	cat := storage.NewCatalog()
	tbl := storage.NewTable("t", storage.Schema{{Name: "g", Type: storage.TypeString}})
	for _, v := range []storage.Value{
		storage.Str("a"), storage.NullValue(storage.TypeString),
		storage.NullValue(storage.TypeString), storage.Str("a")} {
		if err := tbl.AppendRow(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Add(tbl); err != nil {
		t.Fatal(err)
	}
	res := runSQL(t, cat, "SELECT g, COUNT(*) FROM t GROUP BY g")
	// NULLs group together (grouping equality, not SQL ternary).
	if res.NumRows() != 2 {
		t.Fatalf("groups = %d", res.NumRows())
	}
}

func TestCountersAccumulateAcrossScans(t *testing.T) {
	cat := bigCatalog(t, 10000, 512)
	tbl2 := storage.NewTable("small", storage.Schema{{Name: "k", Type: storage.TypeInt64}})
	for i := 0; i < 97; i++ {
		if err := tbl2.AppendRow(storage.Int64(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Add(tbl2); err != nil {
		t.Fatal(err)
	}
	res := runSQL(t, cat, "SELECT COUNT(*) FROM big JOIN small ON big.k = small.k")
	if res.Counters.Passes != 2 {
		t.Fatalf("passes = %d", res.Counters.Passes)
	}
	if res.Counters.RowsScanned != 10000+97 {
		t.Fatalf("rows scanned = %d", res.Counters.RowsScanned)
	}
}
