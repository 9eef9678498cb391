package aqp

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sqlparse"
	"repro/internal/workload"
)

func TestQueryAsWritten(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{Seed: 1, Rows: 30000, NumGroups: 8})
	if err != nil {
		t.Fatal(err)
	}
	db := Open(ev.Catalog)
	ctx, asWritten := context.Background(), Request{Mode: ModeAsWritten}
	// Sampled as written: approximate with CIs.
	res, err := db.RunSQL(ctx, "SELECT COUNT(*) AS n FROM events TABLESAMPLE BERNOULLI (10)", asWritten)
	if err != nil {
		t.Fatal(err)
	}
	if res.Technique != TechniqueOnline || res.Guarantee != GuaranteeAPosteriori {
		t.Errorf("tags = %v %v", res.Technique, res.Guarantee)
	}
	if math.Abs(res.Float(0, 0)-30000)/30000 > 0.15 {
		t.Errorf("estimate = %v", res.Float(0, 0))
	}
	if !res.Items[0][0].HasCI {
		t.Error("sampled as-written query must carry a CI")
	}
	// A sampled scan reads only the rows it keeps, all of which a projection
	// returns.
	res, err = db.RunSQL(ctx, "SELECT ev_group FROM events TABLESAMPLE BERNOULLI (50)", asWritten)
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Diagnostics.Counters; c.RowsScanned != int64(res.NumRows()) || c.RowsScanned >= 30000 || c.RowsScanned == 0 {
		t.Errorf("counters = %+v for %d of 30000 rows", c, res.NumRows())
	}
	// Unsampled as written: exact.
	res, err = db.RunSQL(ctx, "SELECT COUNT(*) FROM events", asWritten)
	if err != nil {
		t.Fatal(err)
	}
	if res.Guarantee != GuaranteeExact || res.Float(0, 0) != 30000 {
		t.Errorf("unsampled as-written should be exact: %v %v", res.Guarantee, res.Float(0, 0))
	}
	// Spec from the SQL clause.
	res, err = db.RunSQL(ctx, "SELECT COUNT(*) FROM events TABLESAMPLE BERNOULLI (10) WITH ERROR 20% CONFIDENCE 90%", asWritten)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec.RelError != 0.20 {
		t.Errorf("spec = %+v", res.Spec)
	}
}

func TestQueryOLAViaFacade(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{Seed: 2, Rows: 20000, NumGroups: 4})
	if err != nil {
		t.Fatal(err)
	}
	db := Open(ev.Catalog)
	res, err := db.RunSQL(context.Background(), "SELECT AVG(ev_value) AS m FROM events",
		Request{Mode: ModeOLA, Spec: ErrorSpec{RelError: 0.2, Confidence: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Technique != TechniqueOLA {
		t.Errorf("technique = %v", res.Technique)
	}
}

func TestQueryOnlineViaFacade(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{Seed: 3, Rows: 60000, NumGroups: 4})
	if err != nil {
		t.Fatal(err)
	}
	db := Open(ev.Catalog, WithOnlineConfig(OnlineConfig{
		DefaultRate: 0.05, MinTableRows: 1000, DistinctKeep: 10, Seed: 1}))
	res, err := db.RunSQL(context.Background(), "SELECT SUM(ev_value) FROM events", Request{Mode: ModeOnline})
	if err != nil {
		t.Fatal(err)
	}
	if res.Technique != TechniqueOnline {
		t.Errorf("technique = %v", res.Technique)
	}
}

// TestSelectivityGuardReadsSynopsisHistogram: the online engine's
// selectivity guard sees the histogram BuildSynopsis built, and only once
// it is built.
func TestSelectivityGuardReadsSynopsisHistogram(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{Seed: 3, Rows: 60000, NumGroups: 4})
	if err != nil {
		t.Fatal(err)
	}
	db := Open(ev.Catalog, WithOnlineConfig(OnlineConfig{
		DefaultRate: 0.01, MinTableRows: 1000, MinExpectedSampleRows: 30, Seed: 1}))
	const selective = "SELECT SUM(ev_value) FROM events WHERE ev_value > 1e9"
	ctx, online := context.Background(), Request{Mode: ModeOnline}
	res, err := db.RunSQL(ctx, selective, online)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diagnostics.FellBackToExact {
		t.Fatalf("guard acted without a histogram: %v", res.Diagnostics.Messages)
	}
	if err := db.BuildSynopsis("events", "ev_value"); err != nil {
		t.Fatal(err)
	}
	if res, err = db.RunSQL(ctx, selective, online); err != nil {
		t.Fatal(err)
	}
	if !res.Diagnostics.FellBackToExact {
		t.Fatalf("guard missed the synopsis histogram: %v", res.Diagnostics.Messages)
	}
}

func TestBuildSynopsisAndRebuildViaFacade(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{Seed: 4, Rows: 20000, NumGroups: 8})
	if err != nil {
		t.Fatal(err)
	}
	offCfg := OfflineConfig{Caps: []int{128}, SafetyFactor: 1.2, Seed: 1}
	db := Open(ev.Catalog, aqpWithOffline(offCfg))
	if err := db.BuildSynopsis("events", "ev_user"); err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryApprox("SELECT COUNT(DISTINCT ev_user) FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if res.Technique != TechniqueSynopsis {
		t.Errorf("COUNT DISTINCT should route to synopsis: %v", res.Technique)
	}
	if err := db.BuildOfflineSamples("events", [][]string{{"ev_group"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.RebuildOfflineSamples("events"); err != nil {
		t.Fatal(err)
	}
	if db.OfflineEngine().MaintenanceStats().Rebuilds != 1 {
		t.Error("rebuild not recorded")
	}
}

// aqpWithOffline mirrors WithOfflineConfig for test readability.
func aqpWithOffline(cfg OfflineConfig) Option { return WithOfflineConfig(cfg) }

func TestDumpTableCSV(t *testing.T) {
	db := New()
	tbl, err := db.CreateTable("t", Schema{
		{Name: "a", Type: TypeInt64},
		{Name: "b", Type: TypeString},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow(Int64(1), Str("x,y")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := DumpTableCSV(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "a,b\n") || !strings.Contains(out, `"x,y"`) {
		t.Errorf("csv:\n%s", out)
	}
}

func TestFormatResultWithCI(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{Seed: 5, Rows: 60000, NumGroups: 4})
	if err != nil {
		t.Fatal(err)
	}
	db := Open(ev.Catalog, WithOnlineConfig(OnlineConfig{
		DefaultRate: 0.05, MinTableRows: 1000, DistinctKeep: 10, Seed: 1}))
	res, err := db.RunSQL(context.Background(), "SELECT SUM(ev_value) AS s FROM events", Request{Mode: ModeOnline})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatResult(res)
	if !strings.Contains(out, "±") {
		t.Errorf("CI marker missing:\n%s", out)
	}
	if !strings.Contains(out, "technique=online-sampling") {
		t.Errorf("footer missing:\n%s", out)
	}
}

func TestFacadeErrorPaths(t *testing.T) {
	db := New()
	if _, err := db.Query("SELECT"); err == nil {
		t.Error("Query: malformed SQL must error")
	}
	if _, err := db.QueryApprox("garbage"); err == nil {
		t.Error("QueryApprox: malformed SQL must error")
	}
	if _, err := db.Advise("x"); err == nil {
		t.Error("Advise: malformed SQL must error")
	}
	for _, mode := range Modes {
		if _, err := db.RunSQL(context.Background(), "x", Request{Mode: mode}); err == nil {
			t.Errorf("mode %s: malformed SQL must error", mode)
		}
	}
}

// Every scanning mode runs at, and reports, the worker count its context
// carries — as-written included — and GOMAXPROCS without one.
func TestWorkersStampedInEveryScanningMode(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{Seed: 1, Rows: 60000, NumGroups: 8})
	if err != nil {
		t.Fatal(err)
	}
	const set = 3
	db := Open(ev.Catalog)
	stmt, err := sqlparse.Parse("SELECT SUM(ev_value) AS s FROM events")
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []Request{
		{Mode: ModeExact}, {Mode: ModeOnline}, {Mode: ModeOffline}, {Mode: ModeOLA},
		{Mode: ModeAsWritten}, {Mode: ModeOnline, Contract: true},
	} {
		for _, c := range []struct {
			ctx  context.Context
			want int
		}{
			{context.Background(), max(runtime.GOMAXPROCS(0), 1)},
			{ContextWithWorkers(context.Background(), set), set},
		} {
			res, err := db.Run(c.ctx, stmt, req)
			if err != nil {
				t.Fatalf("%+v: %v", req, err)
			}
			if got := res.Diagnostics.Workers; got != c.want {
				t.Errorf("mode %s contract=%v: Diagnostics.Workers = %d, want %d", req.Mode, req.Contract, got, c.want)
			}
		}
	}
}

// TestQueryContractOn: a contract request stamps a contract in every mode
// that can size one, lets a WITH ERROR clause beat the spec argument, and
// is refused by the mode's name, before any engine runs, in every other.
func TestQueryContractOn(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{Seed: 4, Rows: 40000, NumGroups: 8, Skew: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	db := Open(ev.Catalog, WithOnlineConfig(OnlineConfig{DefaultRate: 0.5, MinTableRows: 1, Seed: 1}))
	const q = "SELECT SUM(ev_value) FROM events"
	spec := ErrorSpec{RelError: 0.05, Confidence: 0.95}
	type contractCase struct {
		mode   Mode
		sql    string
		target float64 // 0: the mode cannot size a contract and is refused
	}
	cases := []contractCase{{ModeOnline, q + " WITH ERROR 2% CONFIDENCE 90%", 0.02}}
	for _, mode := range Modes {
		c := contractCase{mode, q, 0.05}
		if mode == ModeExact || mode == ModeSynopsis || mode == ModeAsWritten {
			c.target = 0
		}
		cases = append(cases, c)
	}
	for _, tc := range cases {
		res, err := db.RunSQL(context.Background(), tc.sql, Request{Mode: tc.mode, Spec: spec, Contract: true})
		if tc.target == 0 {
			if want := "mode " + string(tc.mode) + " does not support error contracts"; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: err = %v, want %q", tc.mode, err, want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.mode, err)
		}
		c := res.Diagnostics.Contract
		if c == nil || c.Verdict == "" {
			t.Fatalf("%s: no contract verdict stamped: %+v", tc.mode, res.Diagnostics)
		}
		if c.TargetRelError != tc.target || res.Spec.RelError != tc.target {
			t.Errorf("%s %q: contract target %v / spec %v, want %v", tc.mode, tc.sql, c.TargetRelError, res.Spec.RelError, tc.target)
		}
		if c.Verdict == ContractMet && res.Guarantee != GuaranteeAPriori {
			t.Errorf("%s: met verdict with guarantee %s, want a-priori", tc.mode, res.Guarantee)
		}
	}
}
