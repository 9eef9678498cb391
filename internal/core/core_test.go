package core

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/contract"
	"repro/internal/sample"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// smallEvents generates a modest skewed event table for engine tests.
func smallEvents(t *testing.T, rows int, skew float64) *workload.Events {
	t.Helper()
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: 11, Rows: rows, NumGroups: 20, Skew: skew, BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func parse(t *testing.T, sql string) *sqlparse.SelectStmt {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

func TestErrorSpecValid(t *testing.T) {
	if !DefaultErrorSpec.Valid() {
		t.Error("default spec must be valid")
	}
	for _, bad := range []ErrorSpec{{}, {RelError: 0, Confidence: 0.9}, {RelError: 0.05, Confidence: 1.5}, {RelError: 2, Confidence: 0.9}} {
		if bad.Valid() {
			t.Errorf("%+v should be invalid", bad)
		}
	}
}

func TestExactEngine(t *testing.T) {
	ev := smallEvents(t, 5000, 0)
	e := NewExactEngine(ev.Catalog)
	res, err := e.Execute(context.Background(), parse(t, "SELECT COUNT(*) AS n, SUM(ev_value) AS s FROM events"), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Guarantee != GuaranteeExact || res.Technique != TechniqueExact {
		t.Errorf("tags = %v %v", res.Guarantee, res.Technique)
	}
	if res.Float(0, 0) != 5000 {
		t.Errorf("count = %v", res.Float(0, 0))
	}
	if !res.Diagnostics.SpecSatisfied {
		t.Error("exact always satisfies the spec")
	}
	if res.MaxRelHalfWidth() != 0 {
		t.Error("exact CIs are degenerate")
	}
}

func TestExactStripsTablesample(t *testing.T) {
	ev := smallEvents(t, 3000, 0)
	e := NewExactEngine(ev.Catalog)
	res, err := e.Execute(context.Background(), parse(t, "SELECT COUNT(*) FROM events TABLESAMPLE BERNOULLI (10)"), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Float(0, 0) != 3000 {
		t.Errorf("exact must ignore TABLESAMPLE: count = %v", res.Float(0, 0))
	}
}

func TestOnlineEngineBasic(t *testing.T) {
	ev := smallEvents(t, 60000, 0)
	cfg := DefaultOnlineConfig()
	cfg.DefaultRate = 0.05
	cfg.MinTableRows = 1000
	e := NewOnlineEngine(ev.Catalog, cfg)
	res, err := e.Execute(context.Background(), parse(t, "SELECT COUNT(*) AS n, AVG(ev_value) AS m FROM events"), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Technique != TechniqueOnline || res.Guarantee != GuaranteeAPosteriori {
		t.Fatalf("tags = %v %v (%v)", res.Technique, res.Guarantee, res.Diagnostics.Messages)
	}
	// Count estimate within 10% of 60000.
	if math.Abs(res.Float(0, 0)-60000)/60000 > 0.1 {
		t.Errorf("count estimate = %v", res.Float(0, 0))
	}
	// Mean estimate within 15% of 100 (exp mean).
	if math.Abs(res.Float(0, 1)-100)/100 > 0.15 {
		t.Errorf("avg estimate = %v", res.Float(0, 1))
	}
	if res.Diagnostics.SampleFraction <= 0 || res.Diagnostics.SampleFraction > 0.15 {
		t.Errorf("sample fraction = %v", res.Diagnostics.SampleFraction)
	}
	// CIs attached to aggregates.
	for _, it := range res.Items[0] {
		if !it.IsAggregate || !it.HasCI {
			t.Errorf("item %s missing CI", it.Name)
		}
	}
}

func TestOnlineUsesDistinctForGroupBy(t *testing.T) {
	ev := smallEvents(t, 60000, 1.4)
	cfg := DefaultOnlineConfig()
	cfg.DefaultRate = 0.02
	cfg.MinTableRows = 1000
	e := NewOnlineEngine(ev.Catalog, cfg)
	exact, err := NewExactEngine(ev.Catalog).Execute(context.Background(),
		parse(t, "SELECT ev_group, COUNT(*) AS n FROM events GROUP BY ev_group"), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), parse(t, "SELECT ev_group, COUNT(*) AS n FROM events GROUP BY ev_group"), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range res.Diagnostics.Messages {
		if containsSub(m, "distinct sampler") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected distinct sampler, messages = %v", res.Diagnostics.Messages)
	}
	// The distinct sampler must not lose groups.
	if res.NumRows() != exact.NumRows() {
		t.Errorf("groups: approx %d vs exact %d", res.NumRows(), exact.NumRows())
	}
}

func TestOnlineFallsBackForNonLinear(t *testing.T) {
	ev := smallEvents(t, 60000, 0)
	cfg := DefaultOnlineConfig()
	cfg.MinTableRows = 1000
	e := NewOnlineEngine(ev.Catalog, cfg)
	res, err := e.Execute(context.Background(), parse(t, "SELECT MAX(ev_value) FROM events"), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diagnostics.FellBackToExact || res.Guarantee != GuaranteeExact {
		t.Errorf("MAX must fall back to exact: %+v", res.Diagnostics)
	}
	res, err = e.Execute(context.Background(), parse(t, "SELECT COUNT(DISTINCT ev_user) FROM events"), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diagnostics.FellBackToExact {
		t.Error("COUNT DISTINCT must fall back to exact")
	}
}

func TestOnlineSkipsSmallTables(t *testing.T) {
	ev := smallEvents(t, 2000, 0)
	cfg := DefaultOnlineConfig() // MinTableRows 50k
	e := NewOnlineEngine(ev.Catalog, cfg)
	res, err := e.Execute(context.Background(), parse(t, "SELECT SUM(ev_value) FROM events"), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diagnostics.FellBackToExact {
		t.Error("small tables must not be sampled")
	}
}

func TestOnlineUniverseForJoins(t *testing.T) {
	star, err := workload.GenerateStar(workload.Config{Seed: 5, LineitemRows: 40000, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultOnlineConfig()
	cfg.MinTableRows = 5000
	cfg.DefaultRate = 0.05
	e := NewOnlineEngine(star.Catalog, cfg)
	res, err := e.Execute(context.Background(), parse(t,
		"SELECT COUNT(*) AS n FROM lineitem JOIN orders ON l_orderkey = o_orderkey"), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range res.Diagnostics.Messages {
		if containsSub(m, "universe") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected universe samplers, messages = %v", res.Diagnostics.Messages)
	}
	// Join count estimate within 25% (universe keeps keys aligned).
	if math.Abs(res.Float(0, 0)-40000)/40000 > 0.25 {
		t.Errorf("join count estimate = %v", res.Float(0, 0))
	}
}

func TestOnlineFallbackToExactOnMiss(t *testing.T) {
	ev := smallEvents(t, 60000, 0)
	cfg := DefaultOnlineConfig()
	cfg.MinTableRows = 1000
	cfg.DefaultRate = 0.001 // far too small for a 0.1% error target
	cfg.FallbackToExact = true
	e := NewOnlineEngine(ev.Catalog, cfg)
	res, err := e.Execute(context.Background(), parse(t, "SELECT SUM(ev_value) FROM events"),
		ErrorSpec{RelError: 0.001, Confidence: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diagnostics.FellBackToExact {
		t.Error("expected exact fallback after spec miss")
	}
	if res.Diagnostics.Counters.Passes < 2 {
		t.Errorf("fallback costs a second pass, got %d", res.Diagnostics.Counters.Passes)
	}
}

// TestOnlineSampleCache: the kept-row memo is the online engine's sample
// cache. Every query reads only the kept rows (no build scan), a different
// statement at the same (seed, rate) reuses them, and an append grows the
// bitmap over the new rows instead of rebuilding it.
func TestOnlineSampleCache(t *testing.T) {
	ev := smallEvents(t, 60000, 0)
	cfg := DefaultOnlineConfig()
	cfg.MinTableRows = 1000
	cfg.DefaultRate = 0.05
	cfg.Seed = 4242 // a pair no other test scans at
	e := NewOnlineEngine(ev.Catalog, cfg)
	sample.ForgetKept() // as at process start, whatever ran before
	run := func(sql string) *Result {
		t.Helper()
		res, err := e.Execute(context.Background(), parse(t, sql), DefaultErrorSpec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	before := sample.KeptMemoStats()
	kept := run("SELECT SUM(ev_value) AS s FROM events").Diagnostics.Counters.RowsScanned
	if kept > 60000/10 {
		t.Errorf("first query read %d rows, want ~5%% of 60000", kept)
	}
	res := run("SELECT AVG(ev_value) AS m, COUNT(*) AS n FROM events")
	if st := sample.KeptMemoStats(); st.Misses-before.Misses != 1 || st.Hits-before.Hits != 1 {
		t.Errorf("miss/hit = %d/%d, want 1/1", st.Misses-before.Misses, st.Hits-before.Hits)
	}
	if rows := res.Diagnostics.Counters.RowsScanned; rows != kept {
		t.Errorf("second statement read %d rows, want the kept %d", rows, kept)
	}
	if math.Abs(res.Float(0, 1)-60000)/60000 > 0.15 {
		t.Errorf("count estimate = %v", res.Float(0, 1))
	}

	// An append grows the bitmap; the answer covers the new rows.
	if err := ev.AppendShifted(5000, 1, 9); err != nil {
		t.Fatal(err)
	}
	grown := sample.KeptMemoStats()
	res = run("SELECT COUNT(*) AS n FROM events")
	if st := sample.KeptMemoStats(); st.Grows-grown.Grows != 1 || st.Misses != grown.Misses {
		t.Errorf("after an append: grows %d, misses %d; want one grow, no miss",
			st.Grows-grown.Grows, st.Misses-grown.Misses)
	}
	if rows := res.Diagnostics.Counters.RowsScanned; rows <= kept || rows > 65000/10 {
		t.Errorf("after an append read %d rows, want a few more than %d", rows, kept)
	}
	if math.Abs(res.Float(0, 0)-65000)/65000 > 0.15 {
		t.Errorf("count estimate after the append = %v", res.Float(0, 0))
	}
}

// TestOnlineSampleCacheBuiltOnce: N concurrent first queries decide the
// kept rows once between them — one miss, N−1 hits — and all read the same
// rows (run under -race).
func TestOnlineSampleCacheBuiltOnce(t *testing.T) {
	ev := smallEvents(t, 60000, 0)
	cfg := DefaultOnlineConfig()
	cfg.MinTableRows = 1000
	cfg.DefaultRate = 0.05
	cfg.Seed = 4343 // a pair no other test scans at
	e := NewOnlineEngine(ev.Catalog, cfg)
	stmt := parse(t, "SELECT SUM(ev_value) AS s FROM events")
	sample.ForgetKept() // as at process start, whatever ran before
	before := sample.KeptMemoStats()

	const n = 8
	scanned := make([]int64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Execute(context.Background(), stmt, DefaultErrorSpec)
			if err != nil {
				t.Error(err)
				return
			}
			scanned[i] = res.Diagnostics.Counters.RowsScanned
		}()
	}
	wg.Wait()
	if st := sample.KeptMemoStats(); st.Misses-before.Misses != 1 || st.Hits-before.Hits != n-1 {
		t.Errorf("miss/hit = %d/%d, want 1/%d", st.Misses-before.Misses, st.Hits-before.Hits, n-1)
	}
	for i, rows := range scanned {
		if rows != scanned[0] {
			t.Errorf("query %d read %d rows, query 0 %d", i, rows, scanned[0])
		}
	}
}

// TestOfflineIgnoresTableSample: a stored sample is certified as stored,
// so an offline answer (and a profiling run) strips the statement's
// TABLESAMPLE instead of thinning the sample again under the a-priori
// label, and says so.
func TestOfflineIgnoresTableSample(t *testing.T) {
	ev := smallEvents(t, 100000, 0)
	plain := "SELECT SUM(ev_value) FROM events"
	sampled := plain + " TABLESAMPLE BERNOULLI (10)"
	engine := func(profile string) *OfflineEngine {
		e := NewOfflineEngine(ev.Catalog, DefaultOfflineConfig())
		if err := e.BuildSamples("events", nil); err != nil {
			t.Fatal(err)
		}
		if err := e.ProfileQuery(profile); err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := engine(plain)
	for i, s := range engine(sampled).Samples("events") {
		if want := e.Samples("events")[i].Profile; !reflect.DeepEqual(s.Profile, want) {
			t.Errorf("profiled with TABLESAMPLE %v, without %v", s.Profile, want)
		}
	}
	spec := ErrorSpec{RelError: 0.05, Confidence: 0.95}
	want, err := e.Execute(context.Background(), parse(t, plain), spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Execute(context.Background(), parse(t, sampled), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Technique != TechniqueOffline || got.Guarantee != GuaranteeAPriori {
		t.Fatalf("answered by %v under %v; messages %v", got.Technique, got.Guarantee, got.Diagnostics.Messages)
	}
	if got.Float(0, 0) != want.Float(0, 0) || got.Items[0][0].CI != want.Items[0][0].CI ||
		got.Diagnostics.Counters.RowsScanned != want.Diagnostics.Counters.RowsScanned ||
		got.Diagnostics.SampleFraction != want.Diagnostics.SampleFraction {
		t.Errorf("with TABLESAMPLE: %v %+v, %d rows, fraction %v; without: %v %+v, %d rows, fraction %v",
			got.Float(0, 0), got.Items[0][0].CI, got.Diagnostics.Counters.RowsScanned, got.Diagnostics.SampleFraction,
			want.Float(0, 0), want.Items[0][0].CI, want.Diagnostics.Counters.RowsScanned, want.Diagnostics.SampleFraction)
	}
	ignored := func(r *Result) bool {
		return containsSub(strings.Join(r.Diagnostics.Messages, "\n"), "TABLESAMPLE ignored")
	}
	if !ignored(got) || ignored(want) {
		t.Errorf("messages %v / %v: only the TABLESAMPLE statement says it was ignored",
			got.Diagnostics.Messages, want.Diagnostics.Messages)
	}
}

// TestOfflineContractDrawsLikeOnline: the offline contract draws both
// stages from the base table on the online engine's stage function, so at
// one seed it answers exactly as the online engine does, reports the rows
// and fraction it read, and the statement's TABLESAMPLE does not thin the
// stage's draw a second time.
func TestOfflineContractDrawsLikeOnline(t *testing.T) {
	ev := smallEvents(t, 100000, 0)
	stmt := parse(t, "SELECT SUM(ev_value) FROM events TABLESAMPLE BERNOULLI (10)")
	spec := ErrorSpec{RelError: 0.05, Confidence: 0.95}
	run := func(e Engine) *Result {
		res, err := ExecuteContract(context.Background(), e, stmt, spec, DefaultContractConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := run(NewOfflineEngine(ev.Catalog, OfflineConfig{Seed: 7}))
	on := run(NewOnlineEngine(ev.Catalog, OnlineConfig{DefaultRate: 0.01, MinTableRows: 1, Seed: 7}))
	so, sn := off.Diagnostics.Contract, on.Diagnostics.Contract
	if so.Verdict != contract.VerdictMet || off.Guarantee != GuaranteeAPriori {
		t.Errorf("offline verdict %s under %v, want met a-priori", so.Verdict, off.Guarantee)
	}
	if c := off.Diagnostics.Counters; c.RowsScanned != so.PilotRows+so.FinalRows || c.Passes != 2 {
		t.Errorf("offline read %d rows in %d passes, reports pilot %d + final %d",
			c.RowsScanned, c.Passes, so.PilotRows, so.FinalRows)
	}
	if got := float64(so.PilotRows) / 100000; math.Abs(got-so.PilotFraction) > 0.005 {
		t.Errorf("pilot read %.4f of the table, reports fraction %.4f", got, so.PilotFraction)
	}
	if off.Float(0, 0) != on.Float(0, 0) || off.Items[0][0].CI != on.Items[0][0].CI ||
		off.Diagnostics.Counters != on.Diagnostics.Counters || off.Diagnostics.SampleFraction != on.Diagnostics.SampleFraction ||
		so.PilotRows != sn.PilotRows || so.FinalRows != sn.FinalRows || so.FinalFraction != sn.FinalFraction ||
		so.Verdict != sn.Verdict || off.Guarantee != on.Guarantee {
		t.Errorf("offline %v %+v %+v %+v, online %v %+v %+v %+v",
			off.Float(0, 0), off.Items[0][0].CI, off.Diagnostics.Counters, *so,
			on.Float(0, 0), on.Items[0][0].CI, on.Diagnostics.Counters, *sn)
	}
}

func TestOnlineSelectivityGuard(t *testing.T) {
	ev := smallEvents(t, 60000, 0)
	cfg := DefaultOnlineConfig()
	cfg.MinTableRows = 1000
	cfg.DefaultRate = 0.01
	cfg.MinExpectedSampleRows = 30
	e := NewOnlineEngine(ev.Catalog, cfg)
	e.Synopses = NewSynopsisEngine(ev.Catalog)
	if err := e.Synopses.BuildColumn("events", "ev_value", 128); err != nil {
		t.Fatal(err)
	}

	// Highly selective range: histogram predicts ~0 sampled rows ->
	// exact fallback with an explanatory message.
	res, err := e.Execute(context.Background(), parse(t,
		"SELECT SUM(ev_value) FROM events WHERE ev_value > 1e9"), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diagnostics.FellBackToExact {
		t.Fatalf("selective query must fall back: %v", res.Diagnostics.Messages)
	}
	found := false
	for _, m := range res.Diagnostics.Messages {
		if containsSub(m, "selectivity guard") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected selectivity-guard message: %v", res.Diagnostics.Messages)
	}

	// Unselective range: sampling proceeds.
	res, err = e.Execute(context.Background(), parse(t,
		"SELECT SUM(ev_value) FROM events WHERE ev_value > 1"), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diagnostics.FellBackToExact {
		t.Errorf("unselective query should sample: %v", res.Diagnostics.Messages)
	}

	// Predicate on a column without a histogram: no prediction, sampling
	// proceeds (the guard only acts when it can see).
	res, err = e.Execute(context.Background(), parse(t,
		"SELECT SUM(ev_value) FROM events WHERE ev_ts > 100"), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diagnostics.FellBackToExact {
		t.Error("guard must not trigger without a histogram")
	}

	if err := e.Synopses.BuildColumn("events", "nope", 10); err == nil {
		t.Error("unknown column must error")
	}
}

func TestOfflineEngineLifecycle(t *testing.T) {
	ev := smallEvents(t, 30000, 1.2)
	cfg := DefaultOfflineConfig()
	cfg.Caps = []int{128, 512}
	cfg.UniformRates = []float64{0.05}
	e := NewOfflineEngine(ev.Catalog, cfg)
	if err := e.BuildSamples("events", [][]string{{"ev_group"}}); err != nil {
		t.Fatal(err)
	}
	if got := len(e.Samples("events")); got != 3 {
		t.Fatalf("samples = %d, want 3 (2 caps + 1 uniform)", got)
	}
	if e.Maintenance.SamplesBuilt != 3 || e.Maintenance.RowsScanned != 90000 {
		t.Errorf("maintenance = %+v", e.Maintenance)
	}

	// Profile the group-by shape.
	sql := "SELECT ev_group, SUM(ev_value) AS s, COUNT(*) AS n FROM events GROUP BY ev_group"
	if err := e.ProfileQuery(sql); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), parse(t, sql), ErrorSpec{RelError: 0.5, Confidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Technique != TechniqueOffline || res.Guarantee != GuaranteeAPriori {
		t.Fatalf("tags = %v %v (%v)", res.Technique, res.Guarantee, res.Diagnostics.Messages)
	}
	if res.Diagnostics.SampleFraction >= 1 || res.Diagnostics.SampleFraction <= 0 {
		t.Errorf("sample fraction = %v", res.Diagnostics.SampleFraction)
	}

	// Unprofiled shape falls back.
	res, err = e.Execute(context.Background(), parse(t, "SELECT ev_flag, AVG(ev_value) FROM events GROUP BY ev_flag"), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diagnostics.FellBackToExact {
		t.Error("unprofiled QCS must fall back")
	}
}

func TestOfflineStaleness(t *testing.T) {
	ev := smallEvents(t, 20000, 0)
	cfg := DefaultOfflineConfig()
	cfg.Caps = []int{512}
	cfg.UniformRates = nil
	e := NewOfflineEngine(ev.Catalog, cfg)
	if err := e.BuildSamples("events", [][]string{{"ev_group"}}); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT ev_group, COUNT(*) FROM events GROUP BY ev_group"
	if err := e.ProfileQuery(sql); err != nil {
		t.Fatal(err)
	}
	spec := ErrorSpec{RelError: 0.5, Confidence: 0.9}

	// Fresh: a-priori.
	res, err := e.Execute(context.Background(), parse(t, sql), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Guarantee != GuaranteeAPriori {
		t.Fatalf("fresh sample should be a-priori: %v %v", res.Guarantee, res.Diagnostics.Messages)
	}

	// Mutate the base table.
	if err := ev.AppendShifted(5000, 10, 99); err != nil {
		t.Fatal(err)
	}

	// Policy: fallback to exact.
	res, err = e.Execute(context.Background(), parse(t, sql), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diagnostics.FellBackToExact {
		t.Error("stale + fallback policy must run exactly")
	}

	// Policy: serve stale.
	e.Config.StalePolicy = StaleServe
	res, err = e.Execute(context.Background(), parse(t, sql), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Guarantee != GuaranteeNone || !res.Diagnostics.Stale {
		t.Errorf("stale serve: %v stale=%v", res.Guarantee, res.Diagnostics.Stale)
	}

	// Policy: rebuild.
	e.Config.StalePolicy = StaleRebuild
	before := e.Maintenance.Rebuilds
	res, err = e.Execute(context.Background(), parse(t, sql), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Guarantee != GuaranteeAPriori {
		t.Errorf("after rebuild: %v", res.Guarantee)
	}
	if e.Maintenance.Rebuilds != before+1 {
		t.Errorf("rebuilds = %d", e.Maintenance.Rebuilds)
	}
}

func TestOLAEngineConverges(t *testing.T) {
	ev := smallEvents(t, 50000, 0)
	cfg := DefaultOLAConfig()
	cfg.ChunkRows = 2000
	cfg.StopWhenSpecMet = false
	e := NewOLAEngine(ev.Catalog, cfg)
	var widths []float64
	res, err := e.ExecuteProgressive(context.Background(), parse(t, "SELECT SUM(ev_value) AS s FROM events"),
		DefaultErrorSpec, func(p Progress) bool {
			widths = append(widths, p.Result.Items[0][0].CI.Width())
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(widths) < 5 {
		t.Fatalf("checkpoints = %d", len(widths))
	}
	// CI width at the end must be much smaller than at the start.
	if widths[len(widths)-1] >= widths[0]/2 {
		t.Errorf("CI did not shrink: first %v last %v", widths[0], widths[len(widths)-1])
	}
	// Full read: exact-ish estimate.
	exact, _ := NewExactEngine(ev.Catalog).Execute(context.Background(), parse(t, "SELECT SUM(ev_value) AS s FROM events"), DefaultErrorSpec)
	if math.Abs(res.Float(0, 0)-exact.Float(0, 0))/exact.Float(0, 0) > 0.001 {
		t.Errorf("full-read OLA = %v vs exact %v", res.Float(0, 0), exact.Float(0, 0))
	}
}

func TestOLAStopsEarlyWithPeekingCaveat(t *testing.T) {
	ev := smallEvents(t, 50000, 0)
	cfg := DefaultOLAConfig()
	cfg.ChunkRows = 2000
	e := NewOLAEngine(ev.Catalog, cfg)
	res, err := e.Execute(context.Background(), parse(t, "SELECT COUNT(*) AS n FROM events"),
		ErrorSpec{RelError: 0.1, Confidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diagnostics.SampleFraction >= 1 {
		t.Error("expected early stop")
	}
	if res.Guarantee != GuaranteeNone {
		t.Errorf("peeking must downgrade the guarantee, got %v", res.Guarantee)
	}
	found := false
	for _, m := range res.Diagnostics.Messages {
		if containsSub(m, "peeking") {
			found = true
		}
	}
	if !found {
		t.Error("expected peeking caveat")
	}
}

func TestOLAGroupBy(t *testing.T) {
	ev := smallEvents(t, 30000, 0)
	cfg := DefaultOLAConfig()
	cfg.StopWhenSpecMet = false
	e := NewOLAEngine(ev.Catalog, cfg)
	res, err := e.Execute(context.Background(), parse(t, "SELECT ev_group, COUNT(*) AS n FROM events GROUP BY ev_group"),
		DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 20 {
		t.Errorf("groups = %d", res.NumRows())
	}
	// Full read: counts sum to 30000.
	var sum float64
	for i := 0; i < res.NumRows(); i++ {
		sum += res.Float(i, 1)
	}
	if math.Abs(sum-30000) > 30 {
		t.Errorf("group counts sum to %v", sum)
	}
}

func TestOLAJoins(t *testing.T) {
	star, err := workload.GenerateStar(workload.Config{Seed: 2, LineitemRows: 20000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultOLAConfig()
	cfg.StopWhenSpecMet = false
	cfg.ChunkRows = 5000
	e := NewOLAEngine(star.Catalog, cfg)
	sql := "SELECT COUNT(*) AS n, SUM(l_extendedprice) AS s FROM lineitem JOIN orders ON l_orderkey = o_orderkey"
	res, err := e.Execute(context.Background(), parse(t, sql), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diagnostics.FellBackToExact {
		t.Fatalf("OLA should handle small-dimension joins: %v", res.Diagnostics.Messages)
	}
	exact, err := NewExactEngine(star.Catalog).Execute(context.Background(), parse(t, sql), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	// Full read: OLA over the complete permutation equals exact.
	if math.Abs(res.Float(0, 0)-exact.Float(0, 0)) > 0.5 {
		t.Errorf("OLA join count = %v vs exact %v", res.Float(0, 0), exact.Float(0, 0))
	}
	if math.Abs(res.Float(0, 1)-exact.Float(0, 1))/exact.Float(0, 1) > 1e-9 {
		t.Errorf("OLA join sum = %v vs exact %v", res.Float(0, 1), exact.Float(0, 1))
	}
}

func TestOLAJoinGroupBy(t *testing.T) {
	star, err := workload.GenerateStar(workload.Config{Seed: 3, LineitemRows: 20000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultOLAConfig()
	cfg.StopWhenSpecMet = false
	e := NewOLAEngine(star.Catalog, cfg)
	sql := "SELECT o_orderpriority, COUNT(*) AS n FROM lineitem JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderpriority"
	res, err := e.Execute(context.Background(), parse(t, sql), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewExactEngine(star.Catalog).Execute(context.Background(), parse(t, sql), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != exact.NumRows() {
		t.Fatalf("groups: %d vs %d", res.NumRows(), exact.NumRows())
	}
	for i := 0; i < res.NumRows(); i++ {
		if math.Abs(res.Float(i, 1)-exact.Float(i, 1)) > 0.5 {
			t.Errorf("group %s: %v vs %v", res.Rows[i][0].S, res.Float(i, 1), exact.Float(i, 1))
		}
	}
}

func TestOLAJoinFallsBackWhenDimTooLarge(t *testing.T) {
	star, err := workload.GenerateStar(workload.Config{Seed: 2, LineitemRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultOLAConfig()
	cfg.MaxBuildRows = 10 // orders is larger than this
	e := NewOLAEngine(star.Catalog, cfg)
	res, err := e.Execute(context.Background(), parse(t,
		"SELECT COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey"), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diagnostics.FellBackToExact {
		t.Error("OLA must fall back when the dimension exceeds MaxBuildRows")
	}
}

func TestSynopsisEngine(t *testing.T) {
	ev := smallEvents(t, 40000, 0)
	e := NewSynopsisEngine(ev.Catalog)
	if err := e.BuildColumn("events", "ev_value", 128); err != nil {
		t.Fatal(err)
	}
	if err := e.BuildColumn("events", "ev_user", 0); err != nil {
		t.Fatal(err)
	}
	exact := NewExactEngine(ev.Catalog)

	// Range count from histogram.
	sql := "SELECT COUNT(*) FROM events WHERE ev_value BETWEEN 50 AND 150"
	got, err := e.Execute(context.Background(), parse(t, sql), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := exact.Execute(context.Background(), parse(t, sql), DefaultErrorSpec)
	if math.Abs(got.Float(0, 0)-want.Float(0, 0))/want.Float(0, 0) > 0.05 {
		t.Errorf("histogram count = %v vs exact %v", got.Float(0, 0), want.Float(0, 0))
	}
	if got.Diagnostics.Counters.RowsScanned != 0 {
		t.Error("synopsis answers must not scan the table")
	}

	// COUNT DISTINCT from HLL.
	sqlD := "SELECT COUNT(DISTINCT ev_user) FROM events"
	gotD, err := e.Execute(context.Background(), parse(t, sqlD), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	wantD, _ := exact.Execute(context.Background(), parse(t, sqlD), DefaultErrorSpec)
	if math.Abs(gotD.Float(0, 0)-wantD.Float(0, 0))/wantD.Float(0, 0) > 0.05 {
		t.Errorf("HLL = %v vs exact %v", gotD.Float(0, 0), wantD.Float(0, 0))
	}

	// Unsupported shape errors.
	if _, err := e.Execute(context.Background(), parse(t, "SELECT SUM(ev_value) FROM events"), DefaultErrorSpec); err == nil {
		t.Error("SUM is not synopsis-answerable")
	}
	if _, err := e.Execute(context.Background(), parse(t, "SELECT COUNT(*) FROM events WHERE ev_flag = true AND ev_value > 3"), DefaultErrorSpec); err == nil {
		t.Error("multi-column predicate is not synopsis-answerable")
	}
}

func TestSynopsisPointCount(t *testing.T) {
	ev := smallEvents(t, 30000, 1.5)
	e := NewSynopsisEngine(ev.Catalog)
	if err := e.BuildColumn("events", "ev_group", 0); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT COUNT(*) FROM events WHERE ev_group = 1"
	got, err := e.Execute(context.Background(), parse(t, sql), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NewExactEngine(ev.Catalog).Execute(context.Background(), parse(t, sql), DefaultErrorSpec)
	// CMS never underestimates and stays within its bound.
	if got.Float(0, 0) < want.Float(0, 0) {
		t.Errorf("CMS underestimated: %v < %v", got.Float(0, 0), want.Float(0, 0))
	}
}

func TestAdvisorRouting(t *testing.T) {
	ev := smallEvents(t, 60000, 1.2)
	onlineCfg := DefaultOnlineConfig()
	onlineCfg.MinTableRows = 1000
	offCfg := DefaultOfflineConfig()
	offCfg.Caps = []int{512}
	offCfg.UniformRates = nil
	offline := NewOfflineEngine(ev.Catalog, offCfg)
	if err := offline.BuildSamples("events", [][]string{{"ev_group"}}); err != nil {
		t.Fatal(err)
	}
	groupSQL := "SELECT ev_group, SUM(ev_value) AS s FROM events GROUP BY ev_group"
	if err := offline.ProfileQuery(groupSQL); err != nil {
		t.Fatal(err)
	}
	syn := NewSynopsisEngine(ev.Catalog)
	if err := syn.BuildColumn("events", "ev_user", 0); err != nil {
		t.Fatal(err)
	}
	adv := NewAdvisor(NewExactEngine(ev.Catalog), NewOnlineEngine(ev.Catalog, onlineCfg),
		offline, NewOLAEngine(ev.Catalog, DefaultOLAConfig()), syn)

	// Profiled group-by with a loose spec -> offline, a-priori.
	d := adv.Choose(parse(t, groupSQL), ErrorSpec{RelError: 0.5, Confidence: 0.9})
	if d.Technique != TechniqueOffline {
		t.Errorf("choice = %+v", d)
	}
	// Unprofiled ad-hoc query -> online.
	d = adv.Choose(parse(t, "SELECT SUM(ev_value) FROM events WHERE ev_ts > 100"), DefaultErrorSpec)
	if d.Technique != TechniqueOnline {
		t.Errorf("choice = %+v", d)
	}
	// COUNT DISTINCT -> synopsis.
	d = adv.Choose(parse(t, "SELECT COUNT(DISTINCT ev_user) FROM events"), DefaultErrorSpec)
	if d.Technique != TechniqueSynopsis {
		t.Errorf("choice = %+v", d)
	}
	// MIN -> exact.
	d = adv.Choose(parse(t, "SELECT MIN(ev_value) FROM events"), DefaultErrorSpec)
	if d.Technique != TechniqueExact {
		t.Errorf("choice = %+v", d)
	}

	// End-to-end execution through the advisor, spec from SQL.
	res, dec, err := adv.Execute(context.Background(), parse(t, groupSQL+" WITH ERROR 50% CONFIDENCE 90%"), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Technique != TechniqueOffline || res.Technique != TechniqueOffline {
		t.Errorf("advisor execute: %v / %v", dec.Technique, res.Technique)
	}
}

func TestAdvisorMatrix(t *testing.T) {
	ev := smallEvents(t, 30000, 1.0)
	onlineCfg := DefaultOnlineConfig()
	onlineCfg.MinTableRows = 1000
	onlineCfg.DefaultRate = 0.05
	adv := NewAdvisor(NewExactEngine(ev.Catalog), NewOnlineEngine(ev.Catalog, onlineCfg),
		nil, NewOLAEngine(ev.Catalog, DefaultOLAConfig()), nil)
	probe := []string{
		"SELECT SUM(ev_value) FROM events",
		"SELECT ev_group, COUNT(*) FROM events GROUP BY ev_group",
		"SELECT MAX(ev_value) FROM events",
	}
	rows, err := adv.Matrix(probe, DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("matrix rows = %d", len(rows))
	}
	var online *TechniqueProperties
	for i := range rows {
		if rows[i].Technique == TechniqueOnline {
			online = &rows[i]
		}
	}
	if online == nil {
		t.Fatal("no online row")
	}
	// Online supports 2/3 probes (MAX falls back).
	if math.Abs(online.SupportedFraction-2.0/3) > 1e-9 {
		t.Errorf("online supported = %v", online.SupportedFraction)
	}
	if online.APrioriFraction != 0 {
		t.Error("online never gives a-priori guarantees")
	}
	out := FormatMatrix(rows)
	if !containsSub(out, "online-sampling") || !containsSub(out, "technique") {
		t.Errorf("matrix render:\n%s", out)
	}
}

func TestConfidenceAllocation(t *testing.T) {
	c := confidencePerEstimate(ErrorSpec{RelError: 0.05, Confidence: 0.95}, 2, 10)
	want := 1 - 0.05/20
	if math.Abs(c-want) > 1e-12 {
		t.Errorf("allocated confidence = %v, want %v", c, want)
	}
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
