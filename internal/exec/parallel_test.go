package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/trace"
)

// parallelCatalog builds an events-like table big enough to span several
// morsels (block size 256, minMorselRows 8192 → one morsel per 8192 rows).
func parallelCatalog(t testing.TB, rows int) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	tbl := storage.NewTableWithBlockSize("ev", storage.Schema{
		{Name: "k", Type: storage.TypeInt64},
		{Name: "g", Type: storage.TypeString},
		{Name: "v", Type: storage.TypeFloat64},
		{Name: "flag", Type: storage.TypeInt64},
	}, 256)
	rng := rand.New(rand.NewSource(7))
	batch := make([][]storage.Value, 0, 1024)
	for i := 0; i < rows; i++ {
		var v storage.Value
		if rng.Intn(97) == 0 {
			v = storage.NullValue(storage.TypeFloat64) // exercise NULL propagation
		} else {
			v = storage.Float64(rng.ExpFloat64() * 100)
		}
		batch = append(batch, []storage.Value{
			storage.Int64(int64(i)),
			storage.Str(fmt.Sprintf("g%02d", rng.Intn(13))),
			v,
			storage.Int64(int64(rng.Intn(2))),
		})
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

func buildPlan(t testing.TB, cat *storage.Catalog, sql string) plan.Node {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	p, err := plan.Build(stmt, cat)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return p
}

// parallelQueries covers the morsel-eligible shapes: global aggregates,
// group-bys (ordered so output order is defined), residual filters,
// percentiles, arithmetic aggregate args, and the weighted samplers.
var parallelQueries = []string{
	"SELECT COUNT(*), SUM(v), AVG(v) FROM ev",
	"SELECT SUM(v * 2 + 1), COUNT(v) FROM ev WHERE v >= 50",
	"SELECT g, SUM(v), COUNT(*) FROM ev WHERE flag = 1 GROUP BY g ORDER BY g",
	"SELECT PERCENTILE(v, 0.5), PERCENTILE(v, 0.95) FROM ev",
	"SELECT MIN(v), MAX(v) FROM ev WHERE k % 3 = 0",
	"SELECT COUNT(*), SUM(v) FROM ev TABLESAMPLE BERNOULLI (20)",
	"SELECT g, COUNT(*) FROM ev TABLESAMPLE SYSTEM (25) GROUP BY g ORDER BY g",
	"SELECT COUNT(*) FROM ev TABLESAMPLE UNIVERSE (30) ON (g)",
}

// TestParallelMatchesSerial checks the morsel path at four workers against
// the row-at-a-time oracle. Percentiles and exponential measures put the
// float order to the test, so float aggregates compare under a relative
// tolerance; everything else must match exactly.
func TestParallelMatchesSerial(t *testing.T) {
	cat := parallelCatalog(t, 40_000)
	for _, sql := range parallelQueries {
		serial := oracleRun(t, buildPlan(t, cat, sql))
		par, err := RunParallel(buildPlan(t, cat, sql), 4)
		if err != nil {
			t.Fatalf("parallel %q: %v", sql, err)
		}
		if par.NumRows() != serial.NumRows() {
			t.Fatalf("%q: %d parallel rows vs %d serial", sql, par.NumRows(), serial.NumRows())
		}
		for i := range serial.Rows {
			for j := range serial.Rows[i] {
				sv, pv := serial.Value(i, j), par.Value(i, j)
				if sv.Typ == storage.TypeFloat64 && !sv.IsNull() && !pv.IsNull() {
					s, p := sv.AsFloat(), pv.AsFloat()
					if math.Abs(s-p) > 1e-9*math.Max(1, math.Abs(s)) {
						t.Errorf("%q row %d col %d: parallel %v vs serial %v", sql, i, j, p, s)
					}
					continue
				}
				if sv != pv {
					t.Errorf("%q row %d col %d: parallel %v vs serial %v", sql, i, j, pv, sv)
				}
			}
		}
	}
}

// TestParallelWorkerInvariance is the core determinism contract: for any
// worker count the morsel grid and the merge order are the same, so the
// results — including sampled ones — must be bit-identical.
func TestParallelWorkerInvariance(t *testing.T) {
	cat := parallelCatalog(t, 40_000)
	for _, sql := range parallelQueries {
		ref, err := RunParallel(buildPlan(t, cat, sql), 1)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		for _, w := range []int{2, 3, 4, 8} {
			got, err := RunParallel(buildPlan(t, cat, sql), w)
			if err != nil {
				t.Fatalf("%q W=%d: %v", sql, w, err)
			}
			if got.NumRows() != ref.NumRows() {
				t.Fatalf("%q W=%d: %d rows vs %d at W=1", sql, w, got.NumRows(), ref.NumRows())
			}
			for i := range ref.Rows {
				for j := range ref.Rows[i] {
					rv, gv := ref.Value(i, j), got.Value(i, j)
					if rv.Typ == storage.TypeFloat64 && !rv.IsNull() && !gv.IsNull() {
						if math.Float64bits(rv.AsFloat()) != math.Float64bits(gv.AsFloat()) {
							t.Errorf("%q W=%d row %d col %d: %v not bit-identical to %v",
								sql, w, i, j, gv.AsFloat(), rv.AsFloat())
						}
						continue
					}
					if rv != gv {
						t.Errorf("%q W=%d row %d col %d: %v vs %v", sql, w, i, j, gv, rv)
					}
				}
			}
			if got.Counters.RowsScanned != ref.Counters.RowsScanned {
				t.Errorf("%q W=%d: scanned %d rows vs %d at W=1",
					sql, w, got.Counters.RowsScanned, ref.Counters.RowsScanned)
			}
		}
	}
}

// distinctCatalog builds a table for the distinct sampler: three morsels
// (block 256, 20 000 rows) of skewed strata on a string, an integer and a
// float column, with NULL keys, a stratum of five rows ("rare", whose r is
// 0), one that first appears in the last morsel ("late"), and integer
// measures, so that at rates 1/2^k every weighted sum is an exact integer
// whatever order it is added in.
func distinctCatalog(t testing.TB) *storage.Catalog {
	t.Helper()
	tbl := storage.NewTableWithBlockSize("d", storage.Schema{
		{Name: "s", Type: storage.TypeString},
		{Name: "k", Type: storage.TypeInt64},
		{Name: "x", Type: storage.TypeFloat64},
		{Name: "v", Type: storage.TypeInt64},
		{Name: "flag", Type: storage.TypeInt64},
		{Name: "r", Type: storage.TypeInt64},
	}, 256)
	rng := rand.New(rand.NewSource(5))
	common := []string{"a", "a", "a", "a", "b", "b", "c", "d", "e"}
	const rows = 20_000
	batch := make([][]storage.Value, rows)
	for i := range batch {
		s, k, r := storage.Str(common[rng.Intn(len(common))]), storage.Int64(int64(rng.Intn(7))), int64(1+rng.Intn(3))
		switch {
		case i%4000 == 1234:
			s, r = storage.Str("rare"), 0
		case i >= 17_000 && rng.Intn(20) == 0:
			s = storage.Str("late")
		case rng.Intn(31) == 0:
			s = storage.NullValue(storage.TypeString)
		}
		if rng.Intn(29) == 0 {
			k = storage.NullValue(storage.TypeInt64)
		}
		batch[i] = []storage.Value{s, k, storage.Float64(float64(rng.Intn(4)) + 0.5),
			storage.Int64(int64(rng.Intn(100))), storage.Int64(int64(rng.Intn(2))), storage.Int64(r)}
	}
	if err := tbl.AppendRows(batch); err != nil {
		t.Fatal(err)
	}
	cat := storage.NewCatalog()
	if err := cat.Add(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestParallelDistinctKeepsTheSerialSample: the distinct sampler counts
// rows per stratum in scan order, and the morsel path must keep exactly the
// rows, at exactly the weights, the oracle's serial sampler keeps — for any
// worker count. Sums here are exact integers, so equality to the bit pins
// the kept set and the weights, not the rounding.
func TestParallelDistinctKeepsTheSerialSample(t *testing.T) {
	cat := distinctCatalog(t)
	// withResidual leaves pred above the scan, where the sampler's rows meet
	// it after the sampler has counted them.
	withResidual := func(sql, pred string) func() plan.Node {
		return func() plan.Node {
			p := buildPlan(t, cat, sql)
			a := plan.FindAggregate(p)
			stmt, err := sqlparse.Parse("SELECT COUNT(*) FROM d WHERE " + pred)
			if err != nil {
				t.Fatal(err)
			}
			if err := expr.Bind(stmt.Where, a.Child.Schema()); err != nil {
				t.Fatal(err)
			}
			a.Child = &plan.Filter{Child: a.Child, Pred: stmt.Where}
			return p
		}
	}
	plain := func(sql string) func() plan.Node {
		return func() plan.Node { return buildPlan(t, cat, sql) }
	}
	cases := map[string]func() plan.Node{
		"keep 30":              plain("SELECT s, COUNT(*), SUM(v), AVG(v) FROM d TABLESAMPLE DISTINCT (25, 30) ON (s) GROUP BY s"),
		"keep 1":               plain("SELECT s, COUNT(*), SUM(v) FROM d TABLESAMPLE DISTINCT (50, 1) ON (s) GROUP BY s"),
		"keep above a stratum": plain("SELECT s, COUNT(*), SUM(v) FROM d TABLESAMPLE DISTINCT (12.5, 3000) ON (s) GROUP BY s"),
		"NULL integer keys":    plain("SELECT k, COUNT(*), SUM(v), AVG(v) FROM d TABLESAMPLE DISTINCT (25, 30) ON (k) GROUP BY k"),
		"composite key":        plain("SELECT s, k, COUNT(*), SUM(v) FROM d TABLESAMPLE DISTINCT (25, 30) ON (s, k) GROUP BY s, k"),
		"float key":            plain("SELECT x, COUNT(*), SUM(v) FROM d TABLESAMPLE DISTINCT (6.25, 30) ON (x) GROUP BY x"),
		"scan filter":          plain("SELECT s, COUNT(*), SUM(v) FROM d TABLESAMPLE DISTINCT (25, 30) ON (s) WHERE flag = 1 GROUP BY s"),
		"filter and residual": withResidual(
			"SELECT s, COUNT(*), SUM(v), SUM(r) FROM d TABLESAMPLE DISTINCT (25, 30) ON (s) WHERE flag = 1 GROUP BY s", "r > 0"),
		"keys not the GROUP BY's": plain("SELECT k, COUNT(*), SUM(v) FROM d TABLESAMPLE DISTINCT (25, 30) ON (s) GROUP BY k"),
		"keys in another order":   plain("SELECT s, k, COUNT(*), SUM(v) FROM d TABLESAMPLE DISTINCT (25, 30) ON (k, s) GROUP BY s, k"),
		"residual, other keys": withResidual(
			"SELECT k, COUNT(*), SUM(v), SUM(r) FROM d TABLESAMPLE DISTINCT (25, 30) ON (s, k) GROUP BY k", "r > 1"),
		"global aggregate": plain("SELECT COUNT(*), SUM(v), AVG(v) FROM d TABLESAMPLE DISTINCT (6.25, 30) ON (s)"),
	}
	for name, build := range cases {
		serial := oracleRun(t, build())
		if name == "filter and residual" {
			for _, row := range serial.Rows {
				if row[0] == storage.Str("rare") {
					t.Errorf("%s: the stratum whose rows all fail the residual is a group: %v", name, row)
				}
			}
		}
		if serial.Counters.RowsEmitted == 0 || serial.Counters.RowsEmitted >= serial.Counters.RowsScanned {
			t.Errorf("%s: %d of %d rows emitted: not a sample", name, serial.Counters.RowsEmitted, serial.Counters.RowsScanned)
		}
		for _, workers := range []int{1, 2, 3, 4} {
			par, err := RunParallel(build(), workers)
			if err != nil {
				t.Fatalf("%s W=%d: %v", name, workers, err)
			}
			if err := sameResult(par, serial); err != nil {
				t.Errorf("%s W=%d: morsel path vs oracle: %v", name, workers, err)
			}
		}
	}

	// The serial share is on the trace: the rows the ordered merge settled,
	// at most keep per stratum (eight of them) and morsel (three).
	tr := trace.New("query")
	if _, err := RunParallelContext(trace.WithTracer(context.Background(), tr), cases["keep 30"](), 2); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	merge := tr.Profile().Find("merge")
	if merge == nil {
		t.Fatalf("no merge span\n%s", tr.Profile())
	}
	if n, err := strconv.Atoi(merge.Attr("deferred_rows")); err != nil || n < 30 || n > 30*8*3 {
		t.Errorf("merge span: deferred_rows = %q", merge.Attr("deferred_rows"))
	}

	p := buildPlan(t, cat, "SELECT s, COUNT(*) FROM d TABLESAMPLE DISTINCT (25, 30) ON (s) GROUP BY s")
	plan.Scans(p)[0].Range = &plan.RowRange{Order: []int32{5, 3, 1}, Hi: 3}
	if _, err := RunParallel(p, 4); err == nil {
		t.Error("a ranged scan with a distinct sampler must be refused")
	}
}

// TestParallelCancellation: a cancelled context must stop the morsel
// workers and surface the cancellation instead of a result.
func TestParallelCancellation(t *testing.T) {
	cat := parallelCatalog(t, 40_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunParallelContext(ctx, buildPlan(t, cat, "SELECT SUM(v) FROM ev"), 4)
	if err == nil {
		t.Fatal("cancelled context produced a result")
	}
	if ctx.Err() == nil {
		t.Fatal("context not cancelled")
	}
}

// TestResolveWorkers pins the resolution chain: the context's count, then
// GOMAXPROCS, never below 1.
func TestResolveWorkers(t *testing.T) {
	bg := context.Background()
	procs := max(runtime.GOMAXPROCS(0), 1)
	if got := ResolveWorkers(ContextWithWorkers(bg, 3)); got != 3 {
		t.Errorf("context count 3 resolved to %d", got)
	}
	if got := ResolveWorkers(ContextWithWorkers(ContextWithWorkers(bg, 3), 2)); got != 2 {
		t.Errorf("inner context count 2 resolved to %d", got)
	}
	if got := ResolveWorkers(bg); got != procs {
		t.Errorf("no count resolved to %d, want GOMAXPROCS %d", got, procs)
	}
	for _, n := range []int{0, -1} {
		if got := ResolveWorkers(ContextWithWorkers(bg, n)); got != procs {
			t.Errorf("context count %d resolved to %d, want GOMAXPROCS %d", n, got, procs)
		}
	}
}

// TestParallelRaceStress hammers the morsel executor from many goroutines
// with different worker counts while a writer appends to the live table
// and a reader takes snapshots. Answers vary as rows land (each query
// sees its own snapshot) — the test asserts absence of errors and, under
// `go test -race`, absence of data races between scans and appends.
func TestParallelRaceStress(t *testing.T) {
	cat := parallelCatalog(t, 20_000)
	tbl, err := cat.Table("ev")
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT COUNT(*), SUM(v) FROM ev",
		"SELECT g, AVG(v) FROM ev WHERE flag = 1 GROUP BY g ORDER BY g",
		"SELECT COUNT(*) FROM ev TABLESAMPLE BERNOULLI (30)",
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				w := 1 + (q+iter)%4
				ctx := ContextWithWorkers(context.Background(), w)
				if _, err := RunParallelContext(ctx, buildPlan(t, cat, queries[(q+iter)%len(queries)]), 0); err != nil {
					errc <- fmt.Errorf("query goroutine %d iter %d (W=%d): %w", q, iter, w, err)
					return
				}
			}
		}(q)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			rows := make([][]storage.Value, 64)
			for r := range rows {
				rows[r] = []storage.Value{
					storage.Int64(int64(1_000_000 + i*64 + r)),
					storage.Str("gx"),
					storage.Float64(float64(i)),
					storage.Int64(0),
				}
			}
			if err := tbl.AppendRows(rows); err != nil {
				errc <- fmt.Errorf("writer batch %d: %w", i, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			snap := tbl.Snapshot()
			if snap.NumRows() < 20_000 {
				errc <- fmt.Errorf("snapshot %d saw %d rows", i, snap.NumRows())
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
