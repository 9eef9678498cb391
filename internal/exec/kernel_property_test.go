package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/trace"
)

// kernelCatalog builds a table that exercises every typed access path:
// low-cardinality strings with NULLs and the empty string (dense group
// table, code filters), a unique-per-row string (typed-key map), integers
// with NULLs and values past 2^53 (int64 comparison), and a float measure.
// Measures are small integers and the only sampling rate used is 50 %, so
// every Horvitz–Thompson sum is exact in float64 whatever the order: the
// serial operators, which accumulate in one pass, and the morsel path,
// which accumulates per morsel and merges, must then agree to the bit.
func kernelCatalog(t testing.TB, rows int) *storage.Catalog {
	t.Helper()
	tbl := storage.NewTableWithBlockSize("t", storage.Schema{
		{Name: "s1", Type: storage.TypeString},
		{Name: "s2", Type: storage.TypeString},
		{Name: "hi", Type: storage.TypeString},
		{Name: "i1", Type: storage.TypeInt64},
		{Name: "i2", Type: storage.TypeInt64},
		{Name: "f", Type: storage.TypeFloat64},
	}, 256)
	rng := rand.New(rand.NewSource(11))
	s1 := []string{"AIR", "RAIL", "", "SHIP", "a\x1fb"}
	s2 := []string{"O", "F"}
	batch := make([][]storage.Value, 0, 1024)
	for r := 0; r < rows; r++ {
		row := []storage.Value{
			storage.Str(s1[rng.Intn(len(s1))]),
			storage.Str(s2[rng.Intn(len(s2))]),
			storage.Str(fmt.Sprint("h", r)),
			storage.Int64(int64(rng.Intn(9))),
			storage.Int64(1<<53 + int64(rng.Intn(3))),
			storage.Float64(float64(rng.Intn(100))),
		}
		for c, every := range map[int]int{0: 17, 3: 19, 5: 23} {
			if rng.Intn(every) == 0 {
				row[c] = storage.NullValue(tbl.Schema()[c].Type)
			}
		}
		batch = append(batch, row)
		if len(batch) == cap(batch) || r == rows-1 {
			if err := tbl.AppendRows(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	cat := storage.NewCatalog()
	if err := cat.Add(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

// predGen draws random predicates over kernelCatalog's table as SQL text.
type predGen struct{ rng *rand.Rand }

func (g predGen) pick(options ...string) string { return options[g.rng.Intn(len(options))] }

// stringLit draws a literal a row holds, the empty string, or one no row
// holds.
func (g predGen) stringLit() string {
	return g.pick("'AIR'", "'RAIL'", "''", "'SHIP'", "'absent'", "'F'")
}

func (g predGen) atom() string {
	switch g.rng.Intn(12) {
	case 0:
		return fmt.Sprintf("%s %s %s", g.pick("s1", "s2"), g.pick("=", "<>"), g.stringLit())
	case 1:
		return fmt.Sprintf("%s %s s1", g.stringLit(), g.pick("=", "<>"))
	case 2:
		return fmt.Sprintf("s1 %s (%s, %s, %s)", g.pick("IN", "NOT IN"), g.stringLit(), g.stringLit(), g.stringLit())
	case 3:
		return fmt.Sprintf("s1 %s ('absent', 'gone')", g.pick("IN", "NOT IN"))
	case 4:
		return fmt.Sprintf("hi = 'h%d'", g.rng.Intn(50_000))
	case 5:
		return fmt.Sprintf("i1 %s %d", g.pick("=", "<>"), g.rng.Intn(10))
	case 6:
		// 2^53 and 2^53+1 are one float64: only an int64 comparison
		// tells them apart.
		return fmt.Sprintf("i2 %s %d", g.pick("=", "<>"), 1<<53+g.rng.Intn(4))
	case 7:
		return fmt.Sprintf("i1 %s i2", g.pick("=", "<>"))
	case 8:
		return fmt.Sprintf("i1 %s 4.0", g.pick("=", "<>", "<"))
	case 9:
		return fmt.Sprintf("f %s %d AND %d", g.pick("BETWEEN", "NOT BETWEEN"), g.rng.Intn(50), 50+g.rng.Intn(50))
	case 10:
		return fmt.Sprintf("i1 %s 2 AND 6", g.pick("BETWEEN", "NOT BETWEEN"))
	default:
		return g.pick("s1 IS NULL", "i1 IS NOT NULL", "s1 < 'RAIL'") // stay on the evaluator
	}
}

func (g predGen) pred(depth int) string {
	if depth == 0 || g.rng.Intn(3) == 0 {
		return g.atom()
	}
	switch g.rng.Intn(3) {
	case 0:
		return fmt.Sprintf("(%s AND %s)", g.pred(depth-1), g.pred(depth-1))
	case 1:
		return fmt.Sprintf("(%s OR %s)", g.pred(depth-1), g.pred(depth-1))
	default:
		return fmt.Sprintf("NOT (%s)", g.pred(depth-1))
	}
}

// scanFilter plans a single-table statement and returns the predicate the
// planner pushed into its scan, with the scanned table's snapshot.
func scanFilter(t *testing.T, cat *storage.Catalog, where string) (expr.Expr, *storage.Table) {
	t.Helper()
	p := buildPlan(t, cat, "SELECT COUNT(*) FROM t WHERE "+where)
	scans := plan.Scans(p)
	if len(scans) != 1 || scans[0].Filter == nil {
		t.Fatalf("WHERE %s: expected one scan with a pushed-down filter", where)
	}
	return scans[0].Filter, scans[0].Table.Snapshot()
}

// testSelections draws the shapes a kernel meets: the empty selection, one
// row, whole block runs of every awkward length, the first and last row of
// a block, sparse ascending subsets of a run, and a window of a permuted
// order. Each call of the returned function makes the next one the
// scratch's current run and returns it.
func testSelections(rng *rand.Rand, sc *scratch, rows int) []func() []int32 {
	order := make([]int32, rows)
	for i, r := range rng.Perm(rows) {
		order[i] = int32(r)
	}
	block := func(lo, n int) func() []int32 {
		return func() []int32 { return sc.blockRun(lo, lo+n) }
	}
	sparse := func(lo, n, keepOneIn int) func() []int32 {
		return func() []int32 {
			sel := sc.blockRun(lo, lo+n)
			k := 0
			for _, r := range sel {
				if rng.Intn(keepOneIn) == 0 {
					sel[k] = r
					k++
				}
			}
			return sel[:k]
		}
	}
	return []func() []int32{
		block(700, 0), block(0, 1), block(rows-1, 1), block(255, 1), block(256, 1),
		block(512, 255), block(256, 256), block(1024, 1023), block(1024, 1024), block(rows-300, 300),
		sparse(0, 1024, 2), sparse(1500, 1000, 20), sparse(256, 256, 300),
		func() []int32 { return sc.orderRun(order[100:1124]) },
		func() []int32 { return sc.orderRun(order[rows-7:]) },
		func() []int32 { return sc.orderRun(order[40:41]) },
	}
}

// TestCompiledPredicatesMatchEvaluator compares the compiler's filter
// kernels with expr.EvalBool over seeded random predicates — string =/<>/IN
// with present and absent literals, integer equality past 2^53, NOT and OR
// over anything compilable, NULLs everywhere — and over every selection
// shape: a kernel must return, in input order, exactly the rows the per-row
// evaluator keeps, whether it narrows in place or into another vector.
func TestCompiledPredicatesMatchEvaluator(t *testing.T) {
	cat := kernelCatalog(t, 3000)
	// The shapes on the kernel path must compile, or the comparison below
	// would pass by testing nothing.
	for _, where := range []string{
		"s1 = 'AIR'", "'AIR' <> s1", "s1 = 'absent'", "s1 <> 'absent'",
		"s1 IN ('AIR', 'absent')", "s1 NOT IN ('AIR', 'RAIL')",
		"i1 = 3", "i1 <> i2", "i2 = 9007199254740993",
		"NOT (s1 = 'AIR' OR i1 = 3)", "i1 NOT BETWEEN 2 AND 6",
	} {
		e, snap := scanFilter(t, cat, where)
		if c := (&compiler{t: snap}); c.filter(e).kern == nil {
			t.Errorf("WHERE %s does not compile", where)
		}
	}

	g := predGen{rand.New(rand.NewSource(5))}
	compiled := 0
	for i := 0; i < 400; i++ {
		where := g.pred(3)
		e, snap := scanFilter(t, cat, where)
		c := &compiler{t: snap}
		f := c.filter(e)
		if f.kern == nil {
			continue
		}
		compiled++
		sc := newScratch(c, maxRunRows)
		other := make([]int32, maxRunRows)
		for s, next := range testSelections(g.rng, sc, snap.NumRows()) {
			in := next()
			var want []int32
			for _, r := range in {
				ok, err := expr.EvalBool(e, mappedRow{t: snap, idx: int(r)})
				if err != nil {
					t.Fatalf("WHERE %s: evaluator: %v", where, err)
				}
				if ok {
					want = append(want, r)
				}
			}
			out := in // narrow in place, or into another vector
			if s%2 == 1 {
				out = other
			}
			if got := f.kern(sc, in, out); !reflect.DeepEqual(append([]int32(nil), got...), want) {
				t.Fatalf("WHERE %s: selection %d (%d rows): kernel kept %v, evaluator %v", where, s, len(in), got, want)
			}
		}
	}
	if compiled < 200 {
		t.Errorf("only %d of 400 random predicates compiled", compiled)
	}
}

// TestCompiledNumericsMatchEvaluator compares the numeric kernels — column
// loads, literals, float arithmetic, division by zero, NULL marks — with
// expr.Eval over every selection shape, by value bits.
func TestCompiledNumericsMatchEvaluator(t *testing.T) {
	cat := kernelCatalog(t, 3000)
	rng := rand.New(rand.NewSource(17))
	for _, arg := range []string{
		"f", "i1", "i2", "f * 2 + 1", "f * (1 - f / 100)", "f / (i1 - 4.0)", "i1 / i2",
		"(f + i1) * (f - i1)", "i1 * 0.5 - f / (f - 50)", "1.5", "f / 0",
	} {
		a := plan.FindAggregate(buildPlan(t, cat, "SELECT SUM("+arg+") FROM t"))
		scan, _, ok := morselEligible(a)
		if !ok {
			t.Fatalf("SUM(%s) is not morsel-eligible", arg)
		}
		b, err := bindScan(scan)
		if err != nil {
			t.Fatal(err)
		}
		snap := scan.Table.Snapshot()
		c := &compiler{t: snap, m: b.outIdx}
		k := c.num(a.Aggs[0].Arg, 0)
		if k == nil {
			t.Errorf("SUM(%s): argument does not compile", arg)
			continue
		}
		sc := newScratch(c, maxRunRows)
		for s, next := range testSelections(rng, sc, snap.NumRows()) {
			in := next()
			vals, nulls := k(sc, in)
			if len(vals) != len(in) || (nulls != nil && len(nulls) != len(in)) {
				t.Fatalf("SUM(%s): selection %d: %d rows, %d values, %d marks", arg, s, len(in), len(vals), len(nulls))
			}
			for i, r := range in {
				want, err := a.Aggs[0].Arg.Eval(mappedRow{t: snap, idx: int(r), out: b.outIdx})
				if err != nil {
					t.Fatal(err)
				}
				null := nulls != nil && nulls[i]
				if null != want.IsNull() || (!null && math.Float64bits(vals[i]) != math.Float64bits(want.AsFloat())) {
					t.Fatalf("SUM(%s): selection %d row %d %v: kernel %v (null %v), evaluator %v",
						arg, s, r, snap.Row(int(r)), vals[i], null, want)
				}
			}
		}
	}
}

// hostileCatalog holds the values that break naive arithmetic — NaN, ±Inf,
// -0.0, MaxFloat64, integers past 2^53 — among ordinary ones, NULLs, and a
// run of blocks that is all NULL.
func hostileCatalog(t *testing.T, rows int) *storage.Catalog {
	t.Helper()
	tbl := storage.NewTableWithBlockSize("h", storage.Schema{
		{Name: "g", Type: storage.TypeString},
		{Name: "i", Type: storage.TypeInt64},
		{Name: "x", Type: storage.TypeFloat64},
	}, 256)
	rng := rand.New(rand.NewSource(23))
	hostile := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	batch := make([][]storage.Value, rows)
	for r := range batch {
		x := storage.Float64(rng.NormFloat64() * 1e3)
		switch {
		case r >= 9000 && r < 9600 || rng.Intn(11) == 0:
			x = storage.NullValue(storage.TypeFloat64)
		case rng.Intn(40) == 0:
			x = storage.Float64(hostile[rng.Intn(len(hostile))])
		}
		batch[r] = []storage.Value{
			storage.Str(fmt.Sprint("g", rng.Intn(4))),
			storage.Int64(1<<53 + int64(rng.Intn(5)) - 2),
			x,
		}
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

// referenceFold is the row-at-a-time fold the run pipeline replaced, kept
// as the reference: per morsel of morselRows rows it walks the rows one by
// one — evaluator for the filter and the arguments, Decide for the sampler,
// HTEstimator.Add through accumulate — and folds the morsels in order. The
// distinct sampler decides in scan order, as in the serial scan; the rows
// it keeps among the first keep of their stratum in a morsel are added to
// the morsel's sums after the others, which is the morsel path's order.
func referenceFold(t *testing.T, a *plan.Aggregate, scan *plan.Scan, morselRows int) (*groupState, int64) {
	t.Helper()
	b, err := bindScan(scan)
	if err != nil {
		t.Fatal(err)
	}
	table := scan.Table.Snapshot()
	st, err := stageSampler(scan, b.keyIdx, table)
	if err != nil {
		t.Fatal(err)
	}
	type keptRow struct {
		row int
		w   float64
	}
	var total *groupState
	var emitted int64
	for lo := 0; lo < table.NumRows(); lo += morselRows {
		part := newGroupState("", nil, len(a.Aggs))
		fold := func(k keptRow) {
			emitted++
			part.n++
			for j, spec := range a.Aggs {
				if err := accumulate(part.aggs[j], spec, mappedRow{t: table, idx: k.row, out: b.outIdx}, k.w); err != nil {
					t.Fatal(err)
				}
			}
		}
		met := map[string]int{} // rows of the morsel the sampler has met, by stratum
		var heads []keptRow
		for row := lo; row < min(lo+morselRows, table.NumRows()); row++ {
			if ok, err := expr.EvalBool(scan.Filter, mappedRow{t: table, idx: row}); err != nil || !ok {
				continue
			}
			key := ""
			if st.keyer != nil {
				key = st.keyer.Key(row)
			}
			d := st.sampler.Decide(row, key)
			met[key]++
			switch {
			case !d.Keep:
			case st.distinct != nil && met[key] <= scan.Sample.KeepThreshold:
				heads = append(heads, keptRow{row, d.Weight})
			default:
				fold(keptRow{row, d.Weight})
			}
		}
		for _, k := range heads {
			fold(k)
		}
		if total == nil {
			total = part
		} else {
			mergeGroupState(total, part)
		}
	}
	return total, emitted
}

// TestHostileValuesFoldBitForBit: over NaN, ±Inf, -0.0, MaxFloat64, int64
// past 2^53 and an all-NULL run, sampled at 50 % so that w·(w−1)·x² meets an
// infinite x — by the Bernoulli coin and, once, by the distinct sampler,
// whose rows carry two weights — the morsel path returns the reference
// fold's estimates, variances and counts — and the same bits at one and
// four workers.
func TestHostileValuesFoldBitForBit(t *testing.T) {
	cat := hostileCatalog(t, 20_000) // block 256: three morsels of 8192 rows
	for _, c := range [][2]string{
		{"BERNOULLI (50)", "x <= 1 OR NOT (x >= -1)"}, // an unordered pair compares equal in the evaluator
		{"BERNOULLI (50)", "NOT (x < 0) AND i <> 9007199254740993"},
		{"BERNOULLI (50)", "g <> 'g1' OR x > 1e308"},
		{"DISTINCT (50, 700) ON (g)", "NOT (x < 0) AND i <> 9007199254740993"},
		{"DISTINCT (50, 700) ON (g)", "x > -1e300 AND x < 1e300"}, // finite sums: the order within a morsel shows
	} {
		sql := "SELECT COUNT(*), COUNT(x), SUM(x), AVG(x), SUM(x * i), AVG(x / (i - 9007199254740992)), SUM(x * x)" +
			" FROM h TABLESAMPLE " + c[0] + " WHERE " + c[1]
		a := plan.FindAggregate(buildPlan(t, cat, sql))
		scan, _, ok := morselEligible(a)
		if !ok || scan.Filter == nil {
			t.Fatalf("%q: not a filtered morsel scan", sql)
		}
		ref, emitted := referenceFold(t, a, scan, 8192)
		want := finalizeGroups(a, map[string]*groupState{"": ref})
		var one *Batch
		for _, workers := range []int{1, 4} {
			part, err := RunAggPartialContext(context.Background(), buildPlan(t, cat, sql), workers)
			if err != nil {
				t.Fatalf("W=%d %q: %v", workers, sql, err)
			}
			got := finalizeGroups(a, part.groups)
			if workers == 1 {
				one = got
			} else if err := sameDetail(got.Details[0], one.Details[0]); err != nil {
				t.Errorf("%q: W=4 vs W=1: %v", sql, err)
			}
			// Against the reference a NaN matches any NaN: its payload
			// depends on the operand order the compiler picked for Add's
			// sums and for AddRun's, which is not ours to fix.
			for j, x := range got.Details[0].Aggs {
				y := want.Details[0].Aggs[j]
				for _, f := range [][2]float64{{x.Estimate, y.Estimate}, {x.Variance, y.Variance}, {x.N, y.N}} {
					if math.Float64bits(f[0]) != math.Float64bits(f[1]) && !(math.IsNaN(f[0]) && math.IsNaN(f[1])) {
						t.Errorf("W=%d %q: slot %d: morsel fold %+v, reference %+v", workers, sql, j, x, y)
					}
				}
			}
			if got.Details[0].GroupN != want.Details[0].GroupN || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
				t.Errorf("W=%d %q: rows %v (n=%v), reference %v (n=%v)", workers, sql,
					got.Rows, got.Details[0].GroupN, want.Rows, want.Details[0].GroupN)
			}
			if part.Counters.RowsEmitted != emitted || emitted == 0 {
				t.Errorf("W=%d %q: %d rows emitted, reference %d", workers, sql, part.Counters.RowsEmitted, emitted)
			}
		}
	}
}

// TestMorselMatchesSerialBitForBit runs seeded random group-bys and
// predicates through the serial operators and the morsel path at one and
// four workers and requires identical rows and identical GroupDetails —
// keys, group sizes, estimates and variances — to the bit.
func TestMorselMatchesSerialBitForBit(t *testing.T) {
	cat := kernelCatalog(t, 40_000) // five morsels
	groupBys := []string{
		"s1", "s2", "s1, s2", "s2, s1", // dense code table
		"hi",       // typed-key map over codes
		"i1", "i2", // raw int64
		"s1, i1",     // mixed string + int
		"i1, s2, s1", // three parts
		"f",          // float column: evaluated per row
		"s1, i1 + 1", // non-column expression beside a typed part
	}
	samples := []string{"", " TABLESAMPLE BERNOULLI (50)", " TABLESAMPLE UNIVERSE (50) ON (s1)",
		" TABLESAMPLE UNIVERSE (50) ON (s1, s2)", " TABLESAMPLE UNIVERSE (50) ON (i1)"}
	g := predGen{rand.New(rand.NewSource(9))}
	for i := 0; i < 120; i++ {
		by := groupBys[i%len(groupBys)]
		sql := fmt.Sprintf("SELECT %s, COUNT(*) AS n, SUM(f) AS s, AVG(f) AS a, COUNT(f) AS c FROM t%s",
			by, samples[g.rng.Intn(len(samples))])
		if g.rng.Intn(4) > 0 {
			sql += " WHERE " + g.pred(2)
		}
		sql += " GROUP BY " + by
		// The serial result is ordered by canonical key too, so rows and
		// details line up without an ORDER BY.
		requireOneExecution(t, cat, sql)
	}
}

// requireOneExecution is the seam's identity: the serial reference (Run),
// the local run (RunParallelContext) and partial → finalize
// (RunAggPartialContext, then FinalizeAggPartial) return identical rows,
// weights, GroupDetails and counters, to the bit, at one and four workers.
func requireOneExecution(t *testing.T, cat *storage.Catalog, sql string) {
	t.Helper()
	requireOneExecutionOver(t, cat, sql, nil)
}

// requireOneExecutionOver is requireOneExecution with the FROM scan ranged
// over window (nil: the whole table); it returns the serial result.
func requireOneExecutionOver(t *testing.T, cat *storage.Catalog, sql string, window *plan.RowRange) *Result {
	t.Helper()
	ctx := context.Background()
	buildPlan := func(t *testing.T, cat *storage.Catalog, sql string) plan.Node {
		p := buildPlan(t, cat, sql)
		plan.Scans(p)[0].Range = window
		return p
	}
	serial, err := Run(buildPlan(t, cat, sql))
	if err != nil {
		t.Fatalf("serial %q: %v", sql, err)
	}
	for _, workers := range []int{1, 4} {
		par, err := RunParallelContext(ctx, buildPlan(t, cat, sql), workers)
		if err != nil {
			t.Fatalf("W=%d %q: %v", workers, sql, err)
		}
		if err := sameResult(par, serial); err != nil {
			t.Fatalf("W=%d %q: parallel vs serial: %v", workers, sql, err)
		}
		p := buildPlan(t, cat, sql)
		part, err := RunAggPartialContext(ctx, p, workers)
		if plan.FindAggregate(p) == nil {
			if err == nil {
				t.Fatalf("W=%d %q: a plan without an aggregate produced a partial", workers, sql)
			}
			continue
		}
		if err != nil {
			t.Fatalf("W=%d %q: partial: %v", workers, sql, err)
		}
		fin, err := FinalizeAggPartial(ctx, p, part)
		if err != nil {
			t.Fatalf("W=%d %q: finalize: %v", workers, sql, err)
		}
		if err := sameResult(fin, serial); err != nil {
			t.Fatalf("W=%d %q: partial → finalize vs serial: %v", workers, sql, err)
		}
	}
	return serial
}

// TestOneExecutionEveryShape runs the identity over the shapes that pick a
// different partial step or chain: morsel-eligible, a join below the
// aggregate (a serial partial), the distinct sampler (a morsel partial
// whose undecided rows the ordered merge settles), HAVING + ORDER BY +
// LIMIT above the aggregate, a global aggregate over no rows, and a plan
// with no aggregate at all.
func TestOneExecutionEveryShape(t *testing.T) {
	cat := kernelCatalog(t, 40_000)
	addKernelDim(t, cat)
	for _, sql := range []string{
		"SELECT s1, COUNT(*), SUM(f), AVG(f) FROM t TABLESAMPLE BERNOULLI (50) WHERE s2 = 'O' GROUP BY s1",
		"SELECT label, COUNT(*), SUM(f) FROM t JOIN d ON i1 = dk GROUP BY label",
		"SELECT s1, COUNT(*), SUM(f) FROM t TABLESAMPLE DISTINCT (50, 20) ON (s1, s2) GROUP BY s1",
		"SELECT s1, i1, SUM(f) AS s FROM t GROUP BY s1, i1 HAVING SUM(f) > 30000 ORDER BY s DESC, s1, i1 LIMIT 7",
		"SELECT COUNT(*), SUM(f), AVG(f), MIN(f) FROM t WHERE s1 = 'absent'",
		"SELECT s1, f FROM t WHERE i1 = 3 ORDER BY f, s1 LIMIT 20",
	} {
		requireOneExecution(t, cat, sql)
	}
}

// addKernelDim adds a five-row dimension d(dk, label) keyed on half of
// kernelCatalog's i1 values.
func addKernelDim(t *testing.T, cat *storage.Catalog) {
	t.Helper()
	dim := storage.NewTable("d", storage.Schema{
		{Name: "dk", Type: storage.TypeInt64},
		{Name: "label", Type: storage.TypeString},
	})
	for k := 0; k < 9; k += 2 {
		if err := dim.AppendRows([][]storage.Value{{storage.Int64(int64(k)), storage.Str(fmt.Sprint("d", k%3))}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Add(dim); err != nil {
		t.Fatal(err)
	}
}

// TestRangedScanReadsTheWindowInOrder: a FROM scan ranged over [lo, hi) of
// a row order is a scan of a table holding exactly those rows in that
// order — on the morsel path (ordered morsels cut from lo, so one worker
// and four agree to the bit), on the serial scan below a join, and over an
// empty window — with rows scanned = rows in the window.
func TestRangedScanReadsTheWindowInOrder(t *testing.T) {
	cat := kernelCatalog(t, 40_000)
	addKernelDim(t, cat)
	src, err := cat.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int32, src.NumRows())
	for i, r := range rand.New(rand.NewSource(3)).Perm(len(order)) {
		order[i] = int32(r)
	}
	for _, w := range []plan.RowRange{{Order: order, Lo: 3000, Hi: 9500}, {Order: order, Lo: 700, Hi: 700}} {
		// The window, materialized.
		win := storage.NewTableWithBlockSize("t", src.Schema(), 256)
		for _, r := range order[w.Lo:w.Hi] {
			if err := win.AppendRow(src.Row(int(r))...); err != nil {
				t.Fatal(err)
			}
		}
		winCat := storage.NewCatalog()
		if err := winCat.Add(win); err != nil {
			t.Fatal(err)
		}
		addKernelDim(t, winCat)
		for _, sql := range []string{
			"SELECT s1, i1, COUNT(*), SUM(f), SUM(f * f), AVG(f), COUNT(f) FROM t WHERE s2 = 'O' GROUP BY s1, i1",
			"SELECT COUNT(*), SUM(f), SUM(f * f) FROM t WHERE i1 < 4.0",
			"SELECT label, COUNT(*), SUM(f) FROM t JOIN d ON i1 = dk GROUP BY label",
			"SELECT s1, f FROM t WHERE i1 = 3 ORDER BY f, s1 LIMIT 20",
		} {
			got := requireOneExecutionOver(t, cat, sql, &w)
			want, err := Run(buildPlan(t, winCat, sql))
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResult(got, want); err != nil {
				t.Errorf("[%d, %d) %q: ranged scan vs materialized window: %v", w.Lo, w.Hi, sql, err)
			}
		}
	}
	p := buildPlan(t, cat, "SELECT COUNT(*) FROM t TABLESAMPLE BERNOULLI (50)")
	plan.Scans(p)[0].Range = &plan.RowRange{Order: order, Hi: 100}
	if _, err := Run(p); err == nil {
		t.Error("a ranged scan with a sampler must be refused")
	}
}

// TestAggregateSpanNesting: under every traced entry point the aggregate's
// span hangs off the chain above it (the Project span), and a morsel
// partial still reports its geometry and one child per worker.
func TestAggregateSpanNesting(t *testing.T) {
	cat := kernelCatalog(t, 40_000) // five morsels
	const sql = "SELECT s1, SUM(f) FROM t GROUP BY s1 ORDER BY s1"
	traced := func(run func(ctx context.Context)) *trace.Profile {
		tr := trace.New("query")
		run(trace.WithTracer(context.Background(), tr))
		tr.Finish()
		return tr.Profile()
	}
	requireMorsel := func(name string, agg *trace.Profile) {
		t.Helper()
		if agg == nil {
			t.Fatalf("%s: no aggregate span where expected", name)
		}
		if agg.Attr("workers") != "4" || agg.Attr("morsels") != "5" {
			t.Errorf("%s: workers=%q morsels=%q, want 4 and 5\n%s", name, agg.Attr("workers"), agg.Attr("morsels"), agg)
		}
		if got := len(agg.FindAll("worker ")); got != 4 {
			t.Errorf("%s: %d worker spans, want 4\n%s", name, got, agg)
		}
	}
	underProject := func(name string, p *trace.Profile) *trace.Profile {
		t.Helper()
		proj := p.Find("Project")
		if proj == nil {
			t.Fatalf("%s: no Project span\n%s", name, p)
		}
		return proj.Find("HashAggregate")
	}

	var part *AggPartial
	p := traced(func(ctx context.Context) {
		if _, err := RunParallelContext(ctx, buildPlan(t, cat, sql), 4); err != nil {
			t.Fatal(err)
		}
	})
	requireMorsel("RunParallelContext", underProject("RunParallelContext", p))

	p = traced(func(ctx context.Context) {
		var err error
		if part, err = RunAggPartialContext(ctx, buildPlan(t, cat, sql), 4); err != nil {
			t.Fatal(err)
		}
	})
	if p.Find("Project") != nil {
		t.Errorf("RunAggPartialContext ran the chain above the aggregate\n%s", p)
	}
	requireMorsel("RunAggPartialContext", p.Find("HashAggregate"))

	p = traced(func(ctx context.Context) {
		if _, err := FinalizeAggPartial(ctx, buildPlan(t, cat, sql), part); err != nil {
			t.Fatal(err)
		}
	})
	agg := underProject("FinalizeAggPartial", p)
	if agg == nil || agg.Attr("groups") != fmt.Sprint(part.NumGroups()) || agg.RowsOut != int64(part.NumGroups()) {
		t.Errorf("FinalizeAggPartial: aggregate span missing or without groups/out=%d\n%s", part.NumGroups(), p)
	}
}

// sameResult compares two results bit for bit: rows, weights, group
// details and counters.
func sameResult(a, b *Result) error {
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		return fmt.Errorf("rows differ\n%v\n%v", a.Rows, b.Rows)
	}
	if len(a.Weights) != len(b.Weights) || len(a.Details) != len(b.Details) {
		return fmt.Errorf("%d weights, %d details vs %d, %d", len(a.Weights), len(a.Details), len(b.Weights), len(b.Details))
	}
	for i := range a.Weights {
		if math.Float64bits(a.Weights[i]) != math.Float64bits(b.Weights[i]) {
			return fmt.Errorf("row %d: weight %v vs %v", i, a.Weights[i], b.Weights[i])
		}
	}
	for r := range a.Details {
		if (a.Details[r] == nil) != (b.Details[r] == nil) {
			return fmt.Errorf("row %d: detail present on one side only", r)
		}
		if a.Details[r] == nil {
			continue
		}
		if err := sameDetail(a.Details[r], b.Details[r]); err != nil {
			return fmt.Errorf("group %d: %v", r, err)
		}
	}
	if a.Counters != b.Counters {
		return fmt.Errorf("counters %+v vs %+v", a.Counters, b.Counters)
	}
	return nil
}

// sameDetail compares two group details bit for bit.
func sameDetail(a, b *GroupDetail) error {
	if a.Key != b.Key || a.GroupN != b.GroupN || len(a.Aggs) != len(b.Aggs) {
		return fmt.Errorf("key/size %q %v vs %q %v", a.Key, a.GroupN, b.Key, b.GroupN)
	}
	bits := math.Float64bits
	for j := range a.Aggs {
		x, y := a.Aggs[j], b.Aggs[j]
		if bits(x.Estimate) != bits(y.Estimate) || bits(x.Variance) != bits(y.Variance) ||
			x.N != y.N || x.Weighted != y.Weighted || x.Supported != y.Supported {
			return fmt.Errorf("agg %d: %+v vs %+v", j, x, y)
		}
	}
	return nil
}

// TestStringGroupByMorselAllocations guards the point of typed key
// resolution: a string group-by morsel allocates per group, not per row.
func TestStringGroupByMorselAllocations(t *testing.T) {
	cat := kernelCatalog(t, 10_000)
	for _, c := range []struct {
		by     string
		groups int
	}{{"s1", 6}, {"s1, s2", 10}, {"s1, i1", 60}} {
		sql := fmt.Sprintf("SELECT %s, COUNT(*), SUM(f) FROM t WHERE s2 = 'O' OR s1 <> 'AIR' GROUP BY %s", c.by, c.by)
		a := plan.FindAggregate(buildPlan(t, cat, sql))
		scan, residual, ok := morselEligible(a)
		if !ok {
			t.Fatalf("%q is not morsel-eligible", sql)
		}
		op, err := newMorselRun(context.Background(), a, scan, residual, &Counters{}, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		snap := scan.Table.Snapshot()
		op.kern = op.compileKernels(snap)
		wk, err := op.newWorker(snap)
		if err != nil {
			t.Fatal(err)
		}
		const rows = 8192
		var groups int
		allocs := testing.AllocsPerRun(5, func() {
			part, err := wk.processMorsel(context.Background(), 0, rows)
			if err != nil {
				t.Fatal(err)
			}
			groups = len(part.groups)
		})
		if groups != c.groups {
			t.Errorf("GROUP BY %s: %d groups, want %d", c.by, groups, c.groups)
		}
		// A group costs its state, values, key and map entries; the old
		// path also paid at least one allocation per row.
		if limit := float64(12*groups + 16); allocs > limit {
			t.Errorf("GROUP BY %s: %.0f allocations for %d groups over %d rows (limit %.0f)",
				c.by, allocs, groups, rows, limit)
		}
	}
}

// TestSerialScanFilterMatchesEvaluator checks the serial scan, which
// compiles its filter and keys its sampler from cached keys, against the
// interpreter, through the distinct sampler.
func TestSerialScanFilterMatchesEvaluator(t *testing.T) {
	cat := kernelCatalog(t, 5000)
	where := "s1 IN ('AIR', 'SHIP') AND NOT (i1 = 3)"
	e, snap := scanFilter(t, cat, where)
	want := 0
	for row := 0; row < snap.NumRows(); row++ {
		if ok, err := expr.EvalBool(e, mappedRow{t: snap, idx: row}); err != nil {
			t.Fatal(err)
		} else if ok {
			want++
		}
	}
	res, err := Run(buildPlan(t, cat, "SELECT COUNT(*) FROM t TABLESAMPLE DISTINCT (100, 5) ON (s1, s2) WHERE "+where))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != int64(want) || want == 0 {
		t.Errorf("serial scan counted %d rows, evaluator %d", got, want)
	}
	if res.Counters.RowsEmitted != int64(want) {
		t.Errorf("RowsEmitted = %d, want %d", res.Counters.RowsEmitted, want)
	}
}
