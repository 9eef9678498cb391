package aqp

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/workload"
)

func TestQueryAsWritten(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{Seed: 1, Rows: 30000, NumGroups: 8})
	if err != nil {
		t.Fatal(err)
	}
	db := Open(ev.Catalog)
	// Sampled as written: approximate with CIs.
	res, err := db.QueryAsWritten("SELECT COUNT(*) AS n FROM events TABLESAMPLE BERNOULLI (10)")
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
	// Unsampled as written: exact.
	res, err = db.QueryAsWritten("SELECT COUNT(*) FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if res.Guarantee != GuaranteeExact || res.Float(0, 0) != 30000 {
		t.Errorf("unsampled as-written should be exact: %v %v", res.Guarantee, res.Float(0, 0))
	}
	// Spec from the SQL clause.
	res, err = db.QueryAsWritten("SELECT COUNT(*) FROM events TABLESAMPLE BERNOULLI (10) WITH ERROR 20% CONFIDENCE 90%")
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
	res, err := db.QueryOLA("SELECT AVG(ev_value) AS m FROM events", ErrorSpec{RelError: 0.2, Confidence: 0.9})
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
	res, err := db.QueryOnline("SELECT SUM(ev_value) FROM events", DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Technique != TechniqueOnline {
		t.Errorf("technique = %v", res.Technique)
	}
	if db.OnlineEngine() == nil || db.SynopsisEngine() == nil || db.Catalog() == nil {
		t.Error("engine accessors")
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
	res, err := db.QueryOnline(selective, DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diagnostics.FellBackToExact {
		t.Fatalf("guard acted without a histogram: %v", res.Diagnostics.Messages)
	}
	if err := db.BuildSynopsis("events", "ev_value"); err != nil {
		t.Fatal(err)
	}
	if res, err = db.QueryOnline(selective, DefaultErrorSpec); err != nil {
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

func TestExecEscapeHatch(t *testing.T) {
	db := demoDB(t)
	raw, err := db.Exec("SELECT region FROM sales TABLESAMPLE BERNOULLI (50)")
	if err != nil {
		t.Fatal(err)
	}
	if raw.Weights == nil {
		t.Error("raw exec must expose weights")
	}
	// The sampled scan reads only the rows it keeps, all of which it returns.
	if c := raw.Counters; c.RowsScanned != int64(raw.NumRows()) || c.RowsScanned >= 300 || c.RowsScanned == 0 {
		t.Errorf("counters = %+v for %d of 300 rows", raw.Counters, raw.NumRows())
	}
	if _, err := db.Exec("SELECT nope FROM sales"); err == nil {
		t.Error("bad SQL must error")
	}
}

// TestExecHonoursParallelism: an aggregate through Exec takes the morsel
// path Query takes — over three morsels its float sums equal Query's to the
// bit, which the serial operators' single running sum does not — and
// reports the same counters.
func TestExecHonoursParallelism(t *testing.T) {
	star, err := workload.GenerateStar(workload.Config{Seed: 1, LineitemRows: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	db := Open(star.Catalog, WithParallelism(4))
	const sql = "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue, AVG(l_extendedprice) AS price FROM lineitem"
	raw, err := db.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	for j := range raw.Rows[0] {
		if got, want := raw.Rows[0][j].F, res.Rows[0][j].F; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("column %d: Exec %v, Query %v: Exec is not on the morsel path", j, got, want)
		}
	}
	if raw.Counters != res.Diagnostics.Counters {
		t.Errorf("counters: Exec %+v, Query %+v", raw.Counters, res.Diagnostics.Counters)
	}
}

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
	res, err := db.QueryOnline("SELECT SUM(ev_value) AS s FROM events", DefaultErrorSpec)
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
	for _, call := range []func() error{
		func() error { _, err := db.Query("SELECT"); return err },
		func() error { _, err := db.QueryApprox("garbage"); return err },
		func() error { _, err := db.QueryOnline("x", DefaultErrorSpec); return err },
		func() error { _, err := db.QueryOffline("x", DefaultErrorSpec); return err },
		func() error { _, err := db.QueryOLA("x", DefaultErrorSpec); return err },
		func() error { _, err := db.QueryAsWritten("x"); return err },
		func() error { _, err := db.Explain("x"); return err },
		func() error { _, err := db.Advise("x"); return err },
		func() error { _, err := db.QueryProgressive("x", DefaultErrorSpec, nil); return err },
	} {
		if call() == nil {
			t.Error("malformed SQL must error")
		}
	}
}

// Every scanning mode runs at, and reports, the worker count the DB was
// opened with — as-written included — unless the context overrides it.
func TestWorkersStampedInEveryScanningMode(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{Seed: 1, Rows: 60000, NumGroups: 8})
	if err != nil {
		t.Fatal(err)
	}
	const configured, override = 3, 2
	db := Open(ev.Catalog, WithParallelism(configured))
	stmt, err := prepare("SELECT SUM(ev_value) AS s FROM events")
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
			{context.Background(), configured},
			{exec.ContextWithWorkers(context.Background(), override), override},
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

// TestQueryContractOn: the engine-pinned contract entry stamps a contract
// on every technique that can size one, rejects the rest, and lets a WITH
// ERROR clause beat the spec argument.
func TestQueryContractOn(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{Seed: 4, Rows: 40000, NumGroups: 8, Skew: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	db := Open(ev.Catalog, WithOnlineConfig(OnlineConfig{DefaultRate: 0.5, MinTableRows: 1, Seed: 1}))
	const q = "SELECT SUM(ev_value) FROM events"
	spec := ErrorSpec{RelError: 0.05, Confidence: 0.95}
	for _, tc := range []struct {
		tech   Technique
		sql    string
		target float64 // 0: the technique cannot size a contract and is rejected
	}{
		{TechniqueOnline, q, 0.05},
		{TechniqueOLA, q, 0.05},
		{TechniqueOffline, q, 0.05},
		{TechniqueOnline, q + " WITH ERROR 2% CONFIDENCE 90%", 0.02},
		{TechniqueExact, q, 0},
		{TechniqueSynopsis, q, 0},
	} {
		res, err := db.QueryContractOn(tc.tech, tc.sql, spec)
		if tc.target == 0 {
			if err == nil || !strings.Contains(err.Error(), "does not support error contracts") {
				t.Errorf("%s: err = %v, want a contract-unsupported rejection", tc.tech, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.tech, err)
		}
		c := res.Diagnostics.Contract
		if c == nil || c.Verdict == "" {
			t.Fatalf("%s: no contract verdict stamped: %+v", tc.tech, res.Diagnostics)
		}
		if c.TargetRelError != tc.target || res.Spec.RelError != tc.target {
			t.Errorf("%s %q: contract target %v / spec %v, want %v", tc.tech, tc.sql, c.TargetRelError, res.Spec.RelError, tc.target)
		}
		if c.Verdict == ContractMet && res.Guarantee != GuaranteeAPriori {
			t.Errorf("%s: met verdict with guarantee %s, want a-priori", tc.tech, res.Guarantee)
		}
	}
}
