package plan_test

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

func buildCatalog(t testing.TB) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	a := storage.NewTableWithBlockSize("ta", storage.Schema{
		{Name: "a_id", Type: storage.TypeInt64},
		{Name: "a_val", Type: storage.TypeFloat64},
		{Name: "a_tag", Type: storage.TypeString},
	}, 64)
	rng := rand.New(rand.NewSource(4))
	tags := []string{"x", "y", "z"}
	for i := 0; i < 1000; i++ {
		if err := a.AppendRow(
			storage.Int64(int64(i%100)),
			storage.Float64(rng.Float64()*100),
			storage.Str(tags[rng.Intn(3)]),
		); err != nil {
			t.Fatal(err)
		}
	}
	bt := storage.NewTable("tb", storage.Schema{
		{Name: "b_id", Type: storage.TypeInt64},
		{Name: "b_w", Type: storage.TypeFloat64},
	})
	for i := 0; i < 100; i++ {
		if err := bt.AppendRow(storage.Int64(int64(i)), storage.Float64(float64(i)*2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(bt); err != nil {
		t.Fatal(err)
	}
	return cat
}

func mustBuild(t testing.TB, cat *storage.Catalog, sql string) plan.Node {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPredicatePushdownStructure(t *testing.T) {
	cat := buildCatalog(t)
	p := mustBuild(t, cat, "SELECT a_id FROM ta WHERE a_val > 50 AND a_tag = 'x'")
	scans := plan.Scans(p)
	if len(scans) != 1 {
		t.Fatalf("scans = %d", len(scans))
	}
	if scans[0].Filter == nil {
		t.Fatalf("single-table predicate not pushed down:\n%s", plan.Explain(p))
	}
	// No residual Filter node should remain above the scan.
	if strings.Contains(plan.Explain(p), "\nFilter") {
		t.Errorf("residual filter remains:\n%s", plan.Explain(p))
	}
}

func TestJoinPushdownSplitsBySide(t *testing.T) {
	cat := buildCatalog(t)
	p := mustBuild(t, cat,
		"SELECT COUNT(*) FROM ta JOIN tb ON a_id = b_id WHERE a_val > 10 AND b_w < 100")
	for _, s := range plan.Scans(p) {
		if s.Filter == nil {
			t.Errorf("scan %s has no pushed filter:\n%s", s.TableName, plan.Explain(p))
		}
	}
}

func TestCrossTablePredicateStaysAbove(t *testing.T) {
	cat := buildCatalog(t)
	p := mustBuild(t, cat,
		"SELECT COUNT(*) FROM ta JOIN tb ON a_id = b_id WHERE a_val > b_w")
	out := plan.Explain(p)
	if !strings.Contains(out, "Filter") {
		t.Errorf("cross-table predicate must stay as a Filter node:\n%s", out)
	}
}

func TestColumnPruning(t *testing.T) {
	cat := buildCatalog(t)
	p := mustBuild(t, cat, "SELECT SUM(a_val) FROM ta")
	scans := plan.Scans(p)
	if got := len(scans[0].Schema()); got != 1 {
		t.Errorf("pruned scan should expose 1 column, got %d (%v)",
			got, scans[0].Schema().Names())
	}
}

func TestApplyAndClearSamplers(t *testing.T) {
	cat := buildCatalog(t)
	p := mustBuild(t, cat, "SELECT COUNT(*) FROM ta")
	spec := sample.Spec{Kind: sample.KindUniformRow, Rate: 0.5, Seed: 1}
	if !plan.ApplySampler(p, "ta", spec) {
		t.Fatal("ApplySampler failed")
	}
	if plan.ApplySampler(p, "nope", spec) {
		t.Fatal("ApplySampler on unknown table should fail")
	}
	if plan.Scans(p)[0].Sample == nil {
		t.Fatal("sampler not applied")
	}
	plan.ClearSamplers(p)
	if plan.Scans(p)[0].Sample != nil {
		t.Fatal("sampler not cleared")
	}
}

func TestUniverseWeightAlignment(t *testing.T) {
	cat := buildCatalog(t)
	stmt, err := sqlparse.Parse(`SELECT COUNT(*) FROM ta TABLESAMPLE UNIVERSE (50) ON (a_id)
		JOIN tb TABLESAMPLE UNIVERSE (50) ON (b_id) ON a_id = b_id`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	scans := plan.Scans(p)
	carrying := 0
	for _, s := range scans {
		if s.Sample != nil && s.Sample.Kind == sample.KindUniverse && !s.Sample.NoWeight {
			carrying++
		}
	}
	if carrying != 1 {
		t.Errorf("exactly one universe scan must carry the HT weight, got %d", carrying)
	}
}

func TestFindAggregate(t *testing.T) {
	cat := buildCatalog(t)
	p := mustBuild(t, cat, "SELECT a_tag, COUNT(*) FROM ta GROUP BY a_tag ORDER BY a_tag LIMIT 2")
	if plan.FindAggregate(p) == nil {
		t.Error("aggregate not found")
	}
	p2 := mustBuild(t, cat, "SELECT a_id FROM ta")
	if plan.FindAggregate(p2) != nil {
		t.Error("false aggregate")
	}
}

func TestBuildErrors(t *testing.T) {
	cat := buildCatalog(t)
	bad := []string{
		"SELECT nope FROM ta",
		"SELECT a_id FROM missing",
		"SELECT a_id, COUNT(*) FROM ta",                  // non-grouped column with aggregate
		"SELECT COUNT(*) FROM ta JOIN tb ON a_val > b_w", // no equi-key
		"SELECT a_id FROM ta ORDER BY nope",              // unknown sort key
		"SELECT a_tag, COUNT(*) FROM ta GROUP BY a_tag HAVING nope > 1",
	}
	for _, sql := range bad {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			continue // parse-level rejection also fine
		}
		if _, err := plan.Build(stmt, cat); err == nil {
			t.Errorf("Build(%q) should fail", sql)
		}
	}
}

// Property: the optimizer (predicate pushdown) never changes results.
// Random single-table filter queries are executed twice — once through
// Build (optimized) and once with the filter kept above the scan — and
// must agree exactly.
func TestPushdownEquivalenceProperty(t *testing.T) {
	cat := buildCatalog(t)
	f := func(loRaw, hiRaw uint8, tagIdx uint8) bool {
		lo := float64(loRaw) / 3
		hi := lo + float64(hiRaw)/3
		tag := []string{"x", "y", "z"}[tagIdx%3]
		sql := "SELECT COUNT(*) AS n, SUM(a_val) AS s FROM ta WHERE a_val BETWEEN " +
			trim(lo) + " AND " + trim(hi) + " AND a_tag = '" + tag + "'"
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			return false
		}
		optimized, err := plan.Build(stmt, cat)
		if err != nil {
			return false
		}
		r1, err := exec.RunParallel(optimized, 1)
		if err != nil {
			return false
		}
		// Reference: a fresh build, filters cleared from scans by moving
		// the predicate into a HAVING-free re-parse... simplest honest
		// reference is a second Build of the same SQL (determinism) plus
		// a manual filter check against raw table contents.
		n, s := brute(cat, lo, hi, tag)
		if r1.NumRows() != 1 {
			return false
		}
		gotN := r1.Rows[0][0].AsFloat()
		gotS := r1.Rows[0][1].AsFloat()
		return gotN == n && almostEq(gotS, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func brute(cat *storage.Catalog, lo, hi float64, tag string) (n, s float64) {
	ta, _ := cat.Table("ta")
	valIdx := ta.Schema().ColumnIndex("a_val")
	tagIdx := ta.Schema().ColumnIndex("a_tag")
	for i := 0; i < ta.NumRows(); i++ {
		v := ta.Column(valIdx).Value(i).F
		g := ta.Column(tagIdx).Value(i).S
		if v >= lo && v <= hi && g == tag {
			n++
			s += v
		}
	}
	return n, s
}

func almostEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if b > 1 {
		scale = b
	}
	return d/scale < 1e-9
}

func trim(x float64) string {
	s := strconv.FormatFloat(x, 'f', 6, 64)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// TestBuildLeavesStatementAlone: plan.Build is pure in the statement. The
// slots Aggregates() reports are the same before and after planning, and
// one statement can be planned from many goroutines at once (run under
// -race — this is what let shard.buildPlanMu go).
func TestBuildLeavesStatementAlone(t *testing.T) {
	cat := buildCatalog(t)
	stmt, err := sqlparse.Parse("SELECT a_tag, SUM(a_val) / COUNT(*) AS m, MAX(a_val) FROM ta " +
		"GROUP BY a_tag HAVING AVG(a_val) > 1 ORDER BY a_tag")
	if err != nil {
		t.Fatal(err)
	}
	slots := func() []int {
		var out []int
		for _, a := range stmt.Aggregates() {
			out = append(out, a.Slot)
		}
		return out
	}
	before := slots()
	if want := []int{0, 1, 2, 3}; !slices.Equal(before, want) {
		t.Fatalf("parse-time slots = %v, want %v", before, want)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				if _, err := plan.Build(stmt, cat); err != nil {
					t.Errorf("plan.Build: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if after := slots(); !slices.Equal(before, after) {
		t.Fatalf("slots changed across plan.Build: %v then %v", before, after)
	}
}
