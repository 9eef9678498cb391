package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/workload"
)

func TestEngineNames(t *testing.T) {
	ev := smallEvents(t, 1000, 0)
	if NewExactEngine(ev.Catalog).Name() != TechniqueExact {
		t.Error("exact name")
	}
	if NewOnlineEngine(ev.Catalog, DefaultOnlineConfig()).Name() != TechniqueOnline {
		t.Error("online name")
	}
	if NewOfflineEngine(ev.Catalog, DefaultOfflineConfig()).Name() != TechniqueOffline {
		t.Error("offline name")
	}
	if NewOLAEngine(ev.Catalog, DefaultOLAConfig()).Name() != TechniqueOLA {
		t.Error("ola name")
	}
	if NewSynopsisEngine(ev.Catalog).Name() != TechniqueSynopsis {
		t.Error("synopsis name")
	}
}

// TestOnlineDefaultRateRefusesNaN: an out-of-range default rate falls back
// to 1 %, and so does NaN, which no range comparison catches: a NaN rate
// would keep no rows and weigh them NaN.
func TestOnlineDefaultRateRefusesNaN(t *testing.T) {
	ev := smallEvents(t, 1000, 0)
	for _, rate := range []float64{0, -0.5, 1.5, math.NaN(), math.Inf(1)} {
		if got := NewOnlineEngine(ev.Catalog, OnlineConfig{DefaultRate: rate}).Config.DefaultRate; got != 0.01 {
			t.Errorf("DefaultRate %v became %v, want 0.01", rate, got)
		}
	}
}

func TestGuaranteeStrings(t *testing.T) {
	want := map[Guarantee]string{
		GuaranteeExact:       "exact",
		GuaranteeAPriori:     "a-priori",
		GuaranteeAPosteriori: "a-posteriori",
		GuaranteeNone:        "none",
	}
	for g, s := range want {
		if g.String() != s {
			t.Errorf("%d.String() = %q", g, g.String())
		}
	}
}

func TestProfileTemplates(t *testing.T) {
	ev := smallEvents(t, 20000, 1.0)
	cfg := DefaultOfflineConfig()
	cfg.Caps = []int{256}
	cfg.UniformRates = nil
	e := NewOfflineEngine(ev.Catalog, cfg)
	if err := e.BuildSamples("events", [][]string{{"ev_group"}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := e.ProfileQuery("SELECT ev_group, COUNT(*) FROM events GROUP BY ev_group"); err != nil {
			t.Fatal(err)
		}
	}
	profiled := false
	for _, s := range e.Samples("events") {
		if len(s.Profile) > 0 {
			profiled = true
		}
	}
	if !profiled {
		t.Error("profiling left no profile entries")
	}
}

// TestProfileRefusesNaNError: a sample whose profiled answer cannot be
// compared with a NaN truth profiles at error 1, not 0, so a spec it was
// never shown to meet sends the statement to the exact engine rather than
// certifying the sample a-priori.
func TestProfileRefusesNaNError(t *testing.T) {
	tbl := storage.NewTable("t", storage.Schema{{Name: "x", Type: storage.TypeFloat64}})
	batch := make([][]storage.Value, 20000)
	for r := range batch {
		batch[r] = []storage.Value{storage.Float64(float64(r % 100))}
	}
	batch[7777][0] = storage.Float64(math.NaN())
	if err := tbl.AppendRows(batch); err != nil {
		t.Fatal(err)
	}
	cat := storage.NewCatalog()
	if err := cat.Add(tbl); err != nil {
		t.Fatal(err)
	}
	e := NewOfflineEngine(cat, DefaultOfflineConfig())
	if err := e.BuildSamples("t", nil); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT SUM(x) FROM t"
	if err := e.ProfileQuery(sql); err != nil {
		t.Fatal(err)
	}
	for _, s := range e.Samples("t") {
		for key, rel := range s.Profile {
			if rel != 1 {
				t.Errorf("sample %s profiled %s at error %v against a NaN truth, want 1", s.Name, key, rel)
			}
		}
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), stmt, ErrorSpec{RelError: 0.05, Confidence: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diagnostics.FellBackToExact || !math.IsNaN(res.Float(0, 0)) {
		t.Errorf("SUM over a NaN answered %v (fell back to exact: %v, guarantee %s): %v",
			res.Float(0, 0), res.Diagnostics.FellBackToExact, res.Guarantee, res.Diagnostics.Messages)
	}
}

func TestSynopsisBuildRows(t *testing.T) {
	ev := smallEvents(t, 5000, 0)
	e := NewSynopsisEngine(ev.Catalog)
	if e.BuildRows() != 0 {
		t.Error("fresh engine has no build cost")
	}
	if err := e.BuildColumn("events", "ev_value", 32); err != nil {
		t.Fatal(err)
	}
	if e.BuildRows() != 5000 {
		t.Errorf("build rows = %d", e.BuildRows())
	}
	if err := e.BuildColumn("events", "missing", 32); err == nil {
		t.Error("unknown column must error")
	}
	if err := e.BuildColumn("missing", "x", 32); err == nil {
		t.Error("unknown table must error")
	}
}

func TestOLAJoinResidualPredicate(t *testing.T) {
	star, err := workload.GenerateStar(workload.Config{Seed: 4, LineitemRows: 10000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultOLAConfig()
	cfg.StopWhenSpecMet = false
	e := NewOLAEngine(star.Catalog, cfg)
	// ON clause with a residual (non-equi) conjunct.
	sql := `SELECT COUNT(*) AS n FROM lineitem
		JOIN orders ON l_orderkey = o_orderkey AND o_totalprice > 200000`
	res, err := e.Execute(context.Background(), parse(t, sql), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewExactEngine(star.Catalog).Execute(context.Background(), parse(t, sql), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Float(0, 0) != exact.Float(0, 0) {
		t.Errorf("full-read OLA with residual = %v vs exact %v", res.Float(0, 0), exact.Float(0, 0))
	}
}

func TestOLAJoinWithoutEquiKeyFails(t *testing.T) {
	star, err := workload.GenerateStar(workload.Config{Seed: 4, LineitemRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	e := NewOLAEngine(star.Catalog, DefaultOLAConfig())
	_, err = e.Execute(context.Background(), parse(t,
		"SELECT COUNT(*) FROM lineitem JOIN orders ON l_quantity > o_totalprice"), DefaultErrorSpec)
	if err == nil {
		t.Error("non-equi OLA join must error")
	}
}

func TestOLAMinAggregatesFallBack(t *testing.T) {
	ev := smallEvents(t, 20000, 0)
	e := NewOLAEngine(ev.Catalog, DefaultOLAConfig())
	res, err := e.Execute(context.Background(), parse(t, "SELECT MIN(ev_value) FROM events"), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diagnostics.FellBackToExact {
		t.Error("MIN must fall back in OLA")
	}
}

func TestExecuteAsWrittenCore(t *testing.T) {
	ev := smallEvents(t, 20000, 0)
	stmt := parse(t, "SELECT COUNT(*) FROM events TABLESAMPLE BERNOULLI (25)")
	res, err := NewExactEngine(ev.Catalog).ExecuteAsWritten(context.Background(), stmt, DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Guarantee != GuaranteeAPosteriori {
		t.Errorf("sampled as-written: %v", res.Guarantee)
	}
	if res.Diagnostics.SampleFraction <= 0 || res.Diagnostics.SampleFraction >= 1 {
		t.Errorf("fraction = %v", res.Diagnostics.SampleFraction)
	}
	stmt = parse(t, "SELECT COUNT(*) FROM events")
	res, err = NewExactEngine(ev.Catalog).ExecuteAsWritten(context.Background(), stmt, DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Guarantee != GuaranteeExact || res.Diagnostics.SampleFraction != 1 {
		t.Errorf("unsampled as-written: %v %v", res.Guarantee, res.Diagnostics.SampleFraction)
	}
}

func TestOfflineNoHavingSupport(t *testing.T) {
	// Queries the offline engine cannot see in its QCS fall back cleanly
	// even with strange shapes.
	ev := smallEvents(t, 20000, 0)
	e := NewOfflineEngine(ev.Catalog, DefaultOfflineConfig())
	res, err := e.Execute(context.Background(), parse(t,
		"SELECT ev_group, COUNT(*) FROM events GROUP BY ev_group HAVING COUNT(*) > 10"), DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diagnostics.FellBackToExact {
		t.Error("no samples -> exact fallback")
	}
}
