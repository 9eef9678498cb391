package aqp

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/workload"
)

func demoDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	tbl, err := db.CreateTable("sales", Schema{
		{Name: "region", Type: TypeString},
		{Name: "amount", Type: TypeFloat64},
		{Name: "qty", Type: TypeInt64},
	})
	if err != nil {
		t.Fatal(err)
	}
	regions := []string{"east", "west", "north"}
	for i := 0; i < 300; i++ {
		if err := tbl.AppendRow(
			Str(regions[i%3]), Float64(float64(i%100)), Int64(int64(i%7))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestQueryExact(t *testing.T) {
	db := demoDB(t)
	res, err := db.Query("SELECT region, COUNT(*) AS n, SUM(amount) AS s FROM sales GROUP BY region ORDER BY region")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 3 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	if res.Float(0, 1) != 100 {
		t.Errorf("east count = %v", res.Float(0, 1))
	}
	if res.Guarantee != GuaranteeExact {
		t.Errorf("guarantee = %v", res.Guarantee)
	}
}

func TestQueryApproxRoutesToExactForSmallTables(t *testing.T) {
	db := demoDB(t)
	// 300 rows is far below the online sampling threshold, so even the
	// advisor's online choice falls back to exact execution.
	res, err := db.QueryApprox("SELECT SUM(amount) FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diagnostics.FellBackToExact && res.Technique != TechniqueExact {
		t.Errorf("expected exact answer for tiny table: %v", res.Technique)
	}
}

func TestQueryApproxWithClause(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{Seed: 1, Rows: 80000, NumGroups: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfg := OnlineConfig{DefaultRate: 0.05, MinTableRows: 1000, DistinctKeep: 30, Seed: 1}
	db := Open(ev.Catalog, WithOnlineConfig(cfg))
	res, err := db.QueryApprox("SELECT COUNT(*) AS n FROM events WITH ERROR 10% CONFIDENCE 90%")
	if err != nil {
		t.Fatal(err)
	}
	if res.Technique != TechniqueOnline {
		t.Fatalf("technique = %v (%v)", res.Technique, res.Diagnostics.Messages)
	}
	if res.Spec.RelError != 0.10 {
		t.Errorf("spec from SQL = %+v", res.Spec)
	}
	if math.Abs(res.Float(0, 0)-80000)/80000 > 0.1 {
		t.Errorf("estimate = %v", res.Float(0, 0))
	}
}

func TestOfflinePipelineThroughFacade(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{Seed: 2, Rows: 40000, NumGroups: 10, Skew: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	db := Open(ev.Catalog)
	if err := db.BuildOfflineSamples("events", [][]string{{"ev_group"}}); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT ev_group, SUM(ev_value) AS s FROM events GROUP BY ev_group"
	if err := db.ProfileOffline(sql); err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryOffline(sql, ErrorSpec{RelError: 0.5, Confidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Technique != TechniqueOffline || res.Guarantee != GuaranteeAPriori {
		t.Fatalf("offline result: %v %v (%v)", res.Technique, res.Guarantee, res.Diagnostics.Messages)
	}
	// Advisor prefers the certified sample.
	dec, err := db.Advise(sql, ErrorSpec{RelError: 0.5, Confidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Technique != TechniqueOffline {
		t.Errorf("advise = %+v", dec)
	}
	// Maintenance stats exposed.
	if db.OfflineEngine().MaintenanceStats().SamplesBuilt == 0 {
		t.Error("maintenance stats missing")
	}
}

func TestProgressiveThroughFacade(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{Seed: 3, Rows: 30000, NumGroups: 5})
	if err != nil {
		t.Fatal(err)
	}
	db := Open(ev.Catalog, WithOLAConfig(OLAConfig{ChunkRows: 3000, MaxFraction: 1, Seed: 4}))
	checkpoints := 0
	_, err = db.QueryProgressive("SELECT AVG(ev_value) AS m FROM events", DefaultErrorSpec,
		func(p Progress) bool {
			checkpoints++
			return checkpoints < 4
		})
	if err != nil {
		t.Fatal(err)
	}
	if checkpoints != 4 {
		t.Errorf("checkpoints = %d", checkpoints)
	}
}

func TestExplain(t *testing.T) {
	db := demoDB(t)
	out, err := db.Explain("SELECT region, SUM(amount) FROM sales WHERE qty > 2 GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"HashAggregate", "Scan sales", "filter="} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestLoadCSVAndDump(t *testing.T) {
	db := New()
	csvData := "name,score\nalice,10\nbob,20\ncarol,NULL\n"
	tbl, err := db.LoadCSV("people", Schema{
		{Name: "name", Type: TypeString},
		{Name: "score", Type: TypeFloat64},
	}, strings.NewReader(csvData))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 3 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	res, err := db.Query("SELECT COUNT(*) AS n, SUM(score) AS s FROM people")
	if err != nil {
		t.Fatal(err)
	}
	if res.Float(0, 0) != 3 || res.Float(0, 1) != 30 {
		t.Errorf("count/sum = %v/%v", res.Float(0, 0), res.Float(0, 1))
	}
	var buf bytes.Buffer
	if err := DumpCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "n,s") {
		t.Errorf("csv dump:\n%s", buf.String())
	}
}

func TestLoadCSVErrors(t *testing.T) {
	db := New()
	_, err := db.LoadCSV("bad", Schema{{Name: "x", Type: TypeInt64}},
		strings.NewReader("x\nnot-a-number\n"))
	if err == nil {
		t.Fatal("expected parse error")
	}
}

func TestFormatResult(t *testing.T) {
	db := demoDB(t)
	res, err := db.Query("SELECT COUNT(*) AS n FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	out := FormatResult(res)
	if !strings.Contains(out, "n") || !strings.Contains(out, "300") ||
		!strings.Contains(out, "technique=exact") {
		t.Errorf("format:\n%s", out)
	}
}

func TestPropertyMatrixFacade(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{Seed: 4, Rows: 30000, NumGroups: 6})
	if err != nil {
		t.Fatal(err)
	}
	db := Open(ev.Catalog, WithOnlineConfig(OnlineConfig{
		DefaultRate: 0.05, MinTableRows: 1000, DistinctKeep: 30, Seed: 1}))
	rows, err := db.PropertyMatrix([]string{
		"SELECT SUM(ev_value) FROM events",
		"SELECT MIN(ev_value) FROM events",
	}, DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("matrix rows = %d", len(rows))
	}
}

func TestCreateTableDuplicate(t *testing.T) {
	db := demoDB(t)
	if _, err := db.CreateTable("sales", Schema{{Name: "x", Type: TypeInt64}}); err == nil {
		t.Fatal("duplicate table must error")
	}
	if _, err := db.Table("sales"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Table("nope"); err == nil {
		t.Fatal("unknown table must error")
	}
}
