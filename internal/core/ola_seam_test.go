package core

// The seam between the OLA chunk loop and the shared aggregate path: a
// chunk is RunAggPartialContext over a range of the seeded permutation, the
// running state is MergeAggPartials, a checkpoint is FinalizeAggPartial
// plus the prefix estimator. These tests hold the loop to what the private
// executor it replaced guaranteed.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// seamCatalog mirrors the shapes of exec's kernel property table: a
// low-cardinality string with NULLs and the empty string (dictionary-code
// groups), an integer with NULLs (typed-key groups), and a NULL-able float
// measure beside a never-NULL one.
func seamCatalog(t *testing.T, rows int) *storage.Catalog {
	t.Helper()
	tbl := storage.NewTableWithBlockSize("t", storage.Schema{
		{Name: "s1", Type: storage.TypeString},
		{Name: "i1", Type: storage.TypeInt64},
		{Name: "f", Type: storage.TypeFloat64},
		{Name: "g", Type: storage.TypeFloat64},
	}, 256)
	rng := rand.New(rand.NewSource(11))
	s1 := []string{"AIR", "RAIL", "", "SHIP"}
	batch := make([][]storage.Value, rows)
	for r := range batch {
		row := []storage.Value{
			storage.Str(s1[rng.Intn(len(s1))]),
			storage.Int64(int64(rng.Intn(9))),
			storage.Float64(rng.ExpFloat64() * 40),
			storage.Float64(float64(rng.Intn(100)) / 8),
		}
		for c, every := range []int{17, 19, 23} {
			if rng.Intn(every) == 0 {
				row[c] = storage.NullValue(tbl.Schema()[c].Type)
			}
		}
		batch[r] = row
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

// olaCheckpoints runs stmt progressively at the given worker count and
// returns every checkpoint the observer saw, then the final result.
func olaCheckpoints(t *testing.T, eng *OLAEngine, stmt *sqlparse.SelectStmt, spec ErrorSpec, workers int) ([]*Result, *Result) {
	t.Helper()
	var seen []*Result
	ctx := exec.ContextWithWorkers(context.Background(), workers)
	res, err := eng.ExecuteProgressive(ctx, stmt, spec, func(p Progress) bool {
		seen = append(seen, p.Result)
		return true
	})
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	if res.Diagnostics.FellBackToExact {
		t.Fatalf("%s: fell back to exact: %v", stmt, res.Diagnostics.Messages)
	}
	return seen, res
}

// requireSameBits fails unless two checkpoints agree to the last bit on
// every value, estimate and interval endpoint.
func requireSameBits(t *testing.T, name string, a, b *Result) {
	t.Helper()
	if len(a.Items) != len(b.Items) {
		t.Fatalf("%s: %d rows vs %d", name, len(a.Items), len(b.Items))
	}
	for i := range a.Items {
		for j, x := range a.Items[i] {
			y := b.Items[i][j]
			if x.Value.String() != y.Value.String() ||
				math.Float64bits(x.CI.Lo) != math.Float64bits(y.CI.Lo) ||
				math.Float64bits(x.CI.Hi) != math.Float64bits(y.CI.Hi) ||
				math.Float64bits(x.Variance) != math.Float64bits(y.Variance) {
				t.Fatalf("%s row %d item %s differs across worker counts: %+v vs %+v", name, i, x.Name, x, y)
			}
		}
	}
}

// TestOLAFullReadMatchesExact: over the statement class supported()
// accepts, reading the whole permutation is the exact answer — COUNT to the
// unit, SUM and AVG to float summation order, NULL where exact says NULL,
// every interval collapsed — and every checkpoint on the way there is
// bit-identical at one worker and at four.
func TestOLAFullReadMatchesExact(t *testing.T) {
	cat := seamCatalog(t, 9000)
	// 2500-row chunks span three ordered morsels, so the merge order is
	// exercised inside a chunk as well as across chunks.
	eng := NewOLAEngine(cat, OLAConfig{ChunkRows: 2500, Seed: 5})
	exact := NewExactEngine(cat)
	for _, sql := range []string{
		"SELECT COUNT(*) AS n, SUM(f) AS s, AVG(f) AS a FROM t",
		"SELECT s1, COUNT(*) AS n, SUM(g) AS s FROM t GROUP BY s1",
		"SELECT i1, AVG(f) AS a, COUNT(f) AS nf FROM t GROUP BY i1",
		"SELECT s1, i1, SUM(f * (1 - g / 100)) AS net FROM t WHERE g > 2 GROUP BY s1, i1",
		"SELECT SUM(i1) AS si, AVG(i1 * 2) AS ai, COUNT(i1) AS ni FROM t WHERE s1 <> 'AIR'",
		"SELECT COUNT(*) AS n, SUM(f) AS s, AVG(g) AS a FROM t WHERE g < -1",
		"SELECT s1, COUNT(*) AS n FROM t WHERE s1 = 'absent' GROUP BY s1",
	} {
		serial, res := olaCheckpoints(t, eng, parse(t, sql), DefaultErrorSpec, 1)
		parallel, _ := olaCheckpoints(t, eng, parse(t, sql), DefaultErrorSpec, 4)
		if len(serial) != 4 || len(parallel) != 4 {
			t.Fatalf("%s: %d and %d checkpoints, want 4", sql, len(serial), len(parallel))
		}
		for c := range serial {
			requireSameBits(t, fmt.Sprintf("%s checkpoint %d", sql, c), serial[c], parallel[c])
		}
		want, err := exact.Execute(context.Background(), parse(t, sql), DefaultErrorSpec)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != want.NumRows() {
			t.Fatalf("%s: %d rows, exact has %d", sql, res.NumRows(), want.NumRows())
		}
		if res.Diagnostics.SampleFraction != 1 || res.Diagnostics.Counters.RowsScanned != 9000 {
			t.Errorf("%s: fraction %v, rows scanned %d", sql, res.Diagnostics.SampleFraction, res.Diagnostics.Counters.RowsScanned)
		}
		for i, row := range res.Rows {
			for j, got := range row {
				w := want.Rows[i][j]
				it := res.Items[i][j]
				switch {
				case got.IsNull() || w.IsNull() || !it.IsAggregate || got.Typ == storage.TypeInt64:
					if got.String() != w.String() {
						t.Errorf("%s row %d %s = %v, exact %v", sql, i, it.Name, got, w)
					}
				case math.Abs(got.AsFloat()-w.AsFloat()) > 1e-9*math.Abs(w.AsFloat()):
					t.Errorf("%s row %d %s = %v, exact %v", sql, i, it.Name, got, w)
				}
				if it.IsAggregate && it.CI.Width() != 0 {
					t.Errorf("%s row %d %s: full read left a CI of width %v", sql, i, it.Name, it.CI.Width())
				}
			}
		}
	}
}

// TestOLAGlobalAggregateMatchingNothing: a global aggregate whose filter
// matches no row still yields SQL's one row; from a partial read it claims
// nothing, from the whole table it is the exact answer.
func TestOLAGlobalAggregateMatchingNothing(t *testing.T) {
	ev := smallEvents(t, 20000, 0)
	const sql = "SELECT COUNT(*) AS n, SUM(ev_value) AS s FROM events WHERE ev_value < -1e18"
	for _, c := range []struct {
		fraction  float64
		satisfied bool
		guarantee Guarantee
	}{{1, true, GuaranteeAPosteriori}, {0.25, false, GuaranteeNone}} {
		eng := NewOLAEngine(ev.Catalog, OLAConfig{MaxFraction: c.fraction, StopWhenSpecMet: true})
		res, err := eng.Execute(context.Background(), parse(t, sql), DefaultErrorSpec)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 1 || res.Rows[0][0].String() != "0" || !res.Rows[0][1].IsNull() {
			t.Fatalf("fraction %v: rows %v, want the one row [0, NULL]", c.fraction, res.Rows)
		}
		if res.Diagnostics.SampleFraction != c.fraction {
			t.Errorf("fraction %v: read %v (a zero-observation estimate must not stop the loop)", c.fraction, res.Diagnostics.SampleFraction)
		}
		if res.Diagnostics.SpecSatisfied != c.satisfied || res.Guarantee != c.guarantee {
			t.Errorf("fraction %v: satisfied=%v guarantee=%v, want %v and %v",
				c.fraction, res.Diagnostics.SpecSatisfied, res.Guarantee, c.satisfied, c.guarantee)
		}
		said := false
		for _, m := range res.Diagnostics.Messages {
			said = said || containsSub(m, "no qualifying row in the 5000 of 20000 rows read")
		}
		if said != (c.fraction < 1) {
			t.Errorf("fraction %v: messages %v", c.fraction, res.Diagnostics.Messages)
		}
	}
}

// TestOLAJoinOnNonUniqueKeyFallsBack: the prefix estimator vouches for a
// join only when a fact row matches at most one build row.
func TestOLAJoinOnNonUniqueKeyFallsBack(t *testing.T) {
	star, err := workload.GenerateStar(workload.Config{Seed: 2, LineitemRows: 4000})
	if err != nil {
		t.Fatal(err)
	}
	e := NewOLAEngine(star.Catalog, DefaultOLAConfig())
	// orders is the fact side here; lineitem, built, repeats l_orderkey.
	res, err := e.Execute(context.Background(), parse(t,
		"SELECT COUNT(*) AS n FROM orders JOIN lineitem ON o_orderkey = l_orderkey"), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diagnostics.FellBackToExact || res.Technique != TechniqueExact {
		t.Fatalf("fell back = %v, technique %s", res.Diagnostics.FellBackToExact, res.Technique)
	}
	said := false
	for _, m := range res.Diagnostics.Messages {
		said = said || containsSub(m, "join with lineitem is not on a unique key of lineitem")
	}
	if !said {
		t.Errorf("messages %v do not state the reason", res.Diagnostics.Messages)
	}
}

// TestOLAChunkFaultContainment: a fault in the third chunk returns the
// two-chunk prefix, flagged and with its interval intact; a fault in the
// first chunk leaves nothing to return.
func TestOLAChunkFaultContainment(t *testing.T) {
	ev := smallEvents(t, 20000, 0)
	t.Cleanup(fault.Uninstall)
	chaos := fault.Schedule{Seed: 1, Rules: []fault.Rule{{Point: "core.ola.chunk", Kind: fault.KindPanic, P: 1}}}
	eng := NewOLAEngine(ev.Catalog, OLAConfig{ChunkRows: 2000, Seed: 9})
	stmt := parse(t, "SELECT SUM(ev_value) AS s FROM events")

	var second *Result
	res, err := eng.ExecuteProgressive(context.Background(), stmt, DefaultErrorSpec, func(p Progress) bool {
		if p.RowsRead == 4000 {
			second = p.Result
			fault.Install(chaos)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	dg := res.Diagnostics
	if res != second || !dg.Partial || !dg.Degraded || dg.Counters.RowsScanned != 4000 || dg.SampleFraction != 0.2 {
		t.Fatalf("partial=%v degraded=%v rows=%d fraction=%v", dg.Partial, dg.Degraded, dg.Counters.RowsScanned, dg.SampleFraction)
	}
	it := res.Items[0][0]
	if res.Guarantee != GuaranteeAPosteriori || !it.HasCI || !(it.CI.Lo < res.Float(0, 0) && res.Float(0, 0) < it.CI.Hi) {
		t.Errorf("guarantee %v, CI %+v around %v", res.Guarantee, it.CI, res.Float(0, 0))
	}
	if len(dg.Messages) == 0 || !containsSub(dg.Messages[len(dg.Messages)-1], "ola: chunk fault after 4000 of 20000 rows") {
		t.Errorf("messages %v", dg.Messages)
	}

	// Still armed: the next query faults in its first chunk.
	if _, err := eng.Execute(context.Background(), stmt, DefaultErrorSpec); err == nil {
		t.Error("a fault in the first chunk must be an error")
	}
}

// TestOLADeadlineInsideFirstChunk: the first chunk runs under a context the
// deadline cannot cancel, so a deadline already past still buys one
// chunk's estimate.
func TestOLADeadlineInsideFirstChunk(t *testing.T) {
	ev := smallEvents(t, 20000, 0)
	eng := NewOLAEngine(ev.Catalog, OLAConfig{ChunkRows: 3000, StopWhenSpecMet: false})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, w := range []int{1, 4} {
		res, err := eng.Execute(exec.ContextWithWorkers(ctx, w), parse(t,
			"SELECT ev_group, AVG(ev_value) AS a FROM events GROUP BY ev_group"), DefaultErrorSpec)
		if err != nil {
			t.Fatalf("W=%d: %v", w, err)
		}
		dg := res.Diagnostics
		if !dg.Partial || dg.Degraded || dg.Counters.RowsScanned != 3000 || res.Guarantee != GuaranteeAPosteriori {
			t.Errorf("W=%d: partial=%v degraded=%v rows=%d guarantee=%v", w, dg.Partial, dg.Degraded, dg.Counters.RowsScanned, res.Guarantee)
		}
		if res.NumRows() != 20 {
			t.Errorf("W=%d: %d groups from the first chunk", w, res.NumRows())
		}
	}
}

// TestOLATraceStaysFlat: however many chunks run, the engine span has one
// setup, one chunks and one checkpoints child — the chunk operators record
// nothing.
func TestOLATraceStaysFlat(t *testing.T) {
	ev := smallEvents(t, 20000, 0)
	eng := NewOLAEngine(ev.Catalog, OLAConfig{ChunkRows: 800, StopWhenSpecMet: false})
	tr := trace.New("query")
	ctx := exec.ContextWithWorkers(trace.WithTracer(context.Background(), tr), 4)
	if _, err := eng.Execute(ctx, parse(t, "SELECT ev_group, SUM(ev_value) AS s FROM events GROUP BY ev_group"), DefaultErrorSpec); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	span := tr.Profile().Find("engine ola")
	if span == nil {
		t.Fatalf("no engine span:\n%s", tr.Profile())
	}
	var names []string
	for _, c := range span.Children {
		names = append(names, c.Name)
		if len(c.Children) != 0 {
			t.Errorf("span %q has children:\n%s", c.Name, span)
		}
	}
	if fmt.Sprint(names) != "[setup chunks checkpoints]" {
		t.Fatalf("engine ola children %v:\n%s", names, span)
	}
	if got := span.Find("checkpoints").Attr("checkpoints"); got != "25" {
		t.Errorf("checkpoints = %q, want 25", got)
	}
	if got := span.Find("chunks").RowsOut; got != 20000 {
		t.Errorf("chunks rows = %d, want 20000", got)
	}
}

// TestOLAPermutationSharedAcrossQueries: the permutation is a pure function
// of (seed, n), computed once however many first queries race for it, the
// sequence rand.Perm draws, and recomputed when an append changes n.
func TestOLAPermutationSharedAcrossQueries(t *testing.T) {
	ev := smallEvents(t, 20000, 0)
	eng := NewOLAEngine(ev.Catalog, OLAConfig{ChunkRows: 1500, MaxFraction: 0.3, Seed: 21})
	stmt := parse(t, "SELECT SUM(ev_value) AS s, COUNT(*) AS n FROM events WHERE ev_value > 1")
	const racers = 8
	answers := make([]*Result, racers)
	orders := make([][]int32, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := eng.Execute(context.Background(), stmt, DefaultErrorSpec)
			if err != nil {
				t.Error(err)
				return
			}
			answers[i], orders[i] = res, eng.order.of(21, 20000)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < racers; i++ {
		if &orders[i][0] != &orders[0][0] {
			t.Fatalf("query %d read a different permutation slice", i)
		}
		requireSameBits(t, fmt.Sprintf("query %d", i), answers[0], answers[i])
	}
	for i, r := range rand.New(rand.NewSource(21)).Perm(20000) {
		if int(orders[0][i]) != r {
			t.Fatalf("position %d holds row %d, rand.Perm holds %d", i, orders[0][i], r)
		}
	}

	row := ev.Table.Row(0)
	if err := ev.Table.AppendRow(row...); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Execute(context.Background(), stmt, DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if grown := eng.order.of(21, 20001); len(grown) != 20001 || res.Diagnostics.Lineage.TableRows != 20001 {
		t.Errorf("after an append: %d-row permutation, lineage %d rows", len(grown), res.Diagnostics.Lineage.TableRows)
	}
}

// TestOLARefusalCostsWhatExactCosts: a join statement OLA refuses on its
// shape (here ORDER BY) runs exactly without first scanning the dimension
// for a unique key, so the refusal allocates what the exact engine does
// plus a fallback message.
func TestOLARefusalCostsWhatExactCosts(t *testing.T) {
	star, err := workload.GenerateStar(workload.Config{Seed: 2, LineitemRows: 8000})
	if err != nil {
		t.Fatal(err)
	}
	stmt := parse(t, `SELECT o_orderpriority, COUNT(*) AS n
		FROM lineitem JOIN orders ON l_orderkey = o_orderkey
		GROUP BY o_orderpriority ORDER BY o_orderpriority`)
	ctx := exec.ContextWithWorkers(context.Background(), 1)
	ola := NewOLAEngine(star.Catalog, DefaultOLAConfig())
	exact := NewExactEngine(star.Catalog)
	res, err := ola.Execute(ctx, stmt, DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diagnostics.FellBackToExact {
		t.Fatalf("OLA answered an ORDER BY statement: %v", res.Diagnostics.Messages)
	}
	run := func(e Engine) func() {
		return func() {
			if _, err := e.Execute(ctx, stmt, DefaultErrorSpec); err != nil {
				t.Fatal(err)
			}
		}
	}
	exactAllocs := testing.AllocsPerRun(5, run(exact))
	olaAllocs := testing.AllocsPerRun(5, run(ola))
	if olaAllocs > exactAllocs+32 {
		t.Errorf("OLA refusal allocates %.0f times per query, exact %.0f: the refusal pays for more than the exact run",
			olaAllocs, exactAllocs)
	}
}
