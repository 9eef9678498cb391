package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	aqp "repro"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/workload"
)

// Binomial acceptance band for empirical CI coverage over e2eTrials
// independent audits of a nominal-95% estimator, mirroring the engine-
// level harness in internal/core/coverage_test.go.
const (
	e2eTrials   = 500
	e2eLowBand  = 0.89
	e2eHighBand = 1.0
	// e2eWindowRows sizes the disjoint ev_ts windows; each window is one
	// independent coverage trial under the engine's fixed sampler seed.
	e2eWindowRows = 200
)

// auditEvents generates the seeded event log sized for the coverage
// windows and opens a DB over it with a deterministic online engine.
func auditEvents(t testing.TB) (*workload.Events, *aqp.DB) {
	t.Helper()
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: 101, Rows: e2eTrials * e2eWindowRows, NumGroups: 16, Skew: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := aqp.Open(ev.Catalog, aqp.WithOnlineConfig(core.OnlineConfig{
		DefaultRate: 0.5, MinTableRows: 1, Seed: 42,
	}))
	return ev, db
}

// windowSQL is the i-th disjoint coverage-trial query: the sampler's
// per-row decisions are a pure function of (engine seed, row index), so
// disjoint row windows are independent Bernoulli trials of the CI.
func windowSQL(i int) string {
	return fmt.Sprintf("SELECT SUM(ev_value) FROM events WHERE ev_ts >= %d AND ev_ts < %d",
		i*e2eWindowRows, (i+1)*e2eWindowRows)
}

func getAudit(t testing.TB, url string) audit.Report {
	t.Helper()
	resp, err := http.Get(url + "/audit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep audit.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

func drainAuditor(t testing.TB, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := srv.Auditor().Drain(ctx); err != nil {
		t.Fatalf("audit drain: %v (backlog %d)", err, srv.Auditor().Backlog())
	}
}

// Serving 500 approximate queries with auditing at 100% must yield an
// empirical CI coverage inside the binomial band of the nominal 95%
// confidence — the end-to-end statement that the served error bars mean
// what they say, measured by the production audit lane itself.
func TestAuditE2ECoverageInBinomialBand(t *testing.T) {
	_, db := auditEvents(t)
	srv := New(db, Config{
		Workers:       4,
		AuditFraction: 1,
		AuditQueueCap: e2eTrials + 16,
		AuditWindow:   e2eTrials + 16,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	for i := 0; i < e2eTrials; i++ {
		resp, ok, bad := postQuery(t, ts.URL, QueryRequest{
			SQL: windowSQL(i), Mode: "online", RelError: 0.5, Confidence: 0.95,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, resp.StatusCode, bad.Error)
		}
		if len(ok.Items) == 0 || !ok.Items[0][0].HasCI {
			t.Fatalf("query %d served without CI: %+v", i, ok)
		}
	}
	drainAuditor(t, srv)

	rep := getAudit(t, ts.URL)
	if !rep.Enabled || rep.Fraction != 1 {
		t.Fatalf("audit config: %+v", rep)
	}
	if rep.Offered != e2eTrials || rep.Dropped != 0 || rep.Errors != 0 {
		t.Fatalf("audit flow: offered %d dropped %d errors %d",
			rep.Offered, rep.Dropped, rep.Errors)
	}
	if rep.Audited != e2eTrials {
		t.Fatalf("audited %d of %d", rep.Audited, e2eTrials)
	}
	onlineTech := string(core.TechniqueOnline)
	var tc *audit.TechniqueCoverage
	for i := range rep.Techniques {
		if rep.Techniques[i].Technique == onlineTech && rep.Techniques[i].Aggregate == "SUM" {
			tc = &rep.Techniques[i]
		}
	}
	if tc == nil {
		t.Fatalf("no online/SUM estimator in %+v", rep.Techniques)
	}
	if tc.Audits != e2eTrials {
		t.Fatalf("estimator saw %d audits, want %d", tc.Audits, e2eTrials)
	}
	if tc.Coverage < e2eLowBand || tc.Coverage > e2eHighBand {
		t.Fatalf("empirical coverage %.3f outside binomial band [%.2f, %.2f] (covered %d/%d)",
			tc.Coverage, e2eLowBand, e2eHighBand, tc.Covered, tc.Audits)
	}
	// The Wilson interval must be consistent with the point estimate and
	// the budget must not be burning at nominal coverage.
	if tc.WilsonLo > tc.Coverage || tc.WilsonHi < tc.Coverage {
		t.Fatalf("wilson [%v, %v] excludes point %v", tc.WilsonLo, tc.WilsonHi, tc.Coverage)
	}
	if !tc.BudgetOK {
		t.Fatalf("budget burning at %.3f coverage: %+v", tc.Coverage, tc)
	}

	// After drain the backlog gauge must read zero.
	snap := getMetrics(t, ts.URL)
	if got := snap.Gauges["audit_backlog"]; got != 0 {
		t.Fatalf("audit_backlog = %d after drain", got)
	}
	if got := snap.Counters[Key("audits_total", "technique", onlineTech)]; got != e2eTrials {
		t.Fatalf("audits_total = %d", got)
	}
}

// comparable strips the fields that legitimately vary run to run
// (latency), keeping everything a client could act on.
func comparable(r QueryResponse) string {
	r.LatencyMS = 0
	b, _ := json.Marshal(r)
	return string(b)
}

// Auditing must be invisible to the foreground: with single-worker
// deterministic execution, every response with auditing at 100% is
// bit-identical to the response with auditing disabled.
func TestAuditForegroundBitIdentical(t *testing.T) {
	queries := make([]QueryRequest, 0, 60)
	for i := 0; i < 50; i++ {
		queries = append(queries, QueryRequest{
			SQL: windowSQL(i), Mode: "online", RelError: 0.5, Confidence: 0.95, Workers: 1,
		})
	}
	queries = append(queries,
		QueryRequest{SQL: "SELECT ev_group, SUM(ev_value) FROM events GROUP BY ev_group", Mode: "online", RelError: 0.5, Confidence: 0.95, Workers: 1},
		QueryRequest{SQL: "SELECT COUNT(*) FROM events", Mode: "exact", Workers: 1},
	)

	run := func(fraction float64) []string {
		_, db := auditEvents(t)
		srv := New(db, Config{Workers: 2, AuditFraction: fraction, AuditQueueCap: 128})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.Shutdown(context.Background())
		var out []string
		for i, q := range queries {
			resp, ok, bad := postQuery(t, ts.URL, q)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("query %d (fraction %v): %s", i, fraction, bad.Error)
			}
			out = append(out, comparable(ok))
		}
		if srv.Auditor() != nil {
			drainAuditor(t, srv)
		}
		return out
	}

	plain := run(0)
	audited := run(1)
	for i := range plain {
		if plain[i] != audited[i] {
			t.Fatalf("response %d differs with auditing on:\noff: %s\non:  %s",
				i, plain[i], audited[i])
		}
	}
}

// Auditing at 100% must not starve the foreground: the idle gate only
// grants audit capacity when no query is waiting and a slot is free, so
// foreground tail latency stays within noise of the audit-off baseline
// and nothing is shed.
func TestAuditDoesNotStarveForeground(t *testing.T) {
	const queries = 150
	run := func(fraction float64) (p99 time.Duration, srvOut *Server, closeFn func()) {
		_, db := auditEvents(t)
		srv := New(db, Config{
			Workers: 2, AuditFraction: fraction,
			AuditQueueCap: queries + 8, AuditWindow: queries + 8,
		})
		ts := httptest.NewServer(srv.Handler())
		lat := make([]time.Duration, 0, queries)
		for i := 0; i < queries; i++ {
			start := time.Now()
			resp, _, bad := postQuery(t, ts.URL, QueryRequest{
				SQL: windowSQL(i), Mode: "online", RelError: 0.5, Confidence: 0.95,
			})
			lat = append(lat, time.Since(start))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("foreground query %d shed or failed: %d %s", i, resp.StatusCode, bad.Error)
			}
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[queries*99/100], srv, func() {
			ts.Close()
			srv.Shutdown(context.Background())
		}
	}

	p99Off, _, closeOff := run(0)
	defer closeOff()
	p99On, srvOn, closeOn := run(1)
	defer closeOn()

	// The audit lane must actually have been working while the foreground
	// ran — otherwise this test proves nothing.
	drainAuditor(t, srvOn)
	if rep := srvOn.Auditor().Report(); rep.Audited == 0 {
		t.Fatalf("no audits executed: %+v", rep)
	}
	// Generous noise bound: an idle-gated background lane can at worst add
	// scheduler jitter, not queueing delay.
	limit := 10*p99Off + 100*time.Millisecond
	if p99On > limit {
		t.Fatalf("foreground p99 %v with auditing vs %v without (limit %v)", p99On, p99Off, limit)
	}
	if shed := srvOn.Metrics().Sample().Counters["queries_shed_total"]; shed != 0 {
		t.Fatalf("auditing caused %g sheds", shed)
	}
}

// After a drift append, audit misses on synopsis-served answers must be
// attributed to sample staleness: the stale gauge fires for the table and
// the report carries a rebuild hint.
func TestAuditStalenessGaugeAfterDrift(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: 11, Rows: 4000, NumGroups: 16, Skew: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := aqp.Open(ev.Catalog)
	if err := db.BuildSynopsis("events", "ev_value"); err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{Workers: 2, AuditFraction: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	// Drift: 3000 new rows land after the synopsis build. Range counts
	// move far beyond the histogram's slack, so every claimed CI misses.
	if err := ev.AppendShifted(3000, 1.0, 5); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		lo := 5 + 5*i
		sql := fmt.Sprintf("SELECT COUNT(*) FROM events WHERE ev_value >= %d AND ev_value < %d",
			lo, lo+60)
		resp, ok, bad := postQuery(t, ts.URL, QueryRequest{SQL: sql})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %s", i, bad.Error)
		}
		if ok.Technique != "synopsis" {
			t.Fatalf("query %d routed to %s, want synopsis", i, ok.Technique)
		}
	}
	drainAuditor(t, srv)

	rep := getAudit(t, ts.URL)
	if rep.Audited != 6 {
		t.Fatalf("audited %d of 6", rep.Audited)
	}
	if len(rep.Tables) != 1 || rep.Tables[0].Table != "events" {
		t.Fatalf("tables: %+v", rep.Tables)
	}
	tb := rep.Tables[0]
	if !tb.Stale {
		t.Fatalf("staleness not detected: %+v (techniques %+v)", tb, rep.Techniques)
	}
	if tb.MaxRowsAppended != 3000 {
		t.Fatalf("rows appended %d, want 3000", tb.MaxRowsAppended)
	}
	if tb.Hint == "" {
		t.Fatal("stale table carries no rebuild hint")
	}

	snap := getMetrics(t, ts.URL)
	if got := snap.Gauges[Key("sample_stale", "table", "events")]; got != 1 {
		t.Fatalf("sample_stale gauge = %d, want 1 (gauges %+v)", got, snap.Gauges)
	}

	// The staleness gauge must also survive the Prometheus exposition
	// path with its labeled-gauge family grouping.
	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !bytes.Contains(buf.Bytes(), []byte(`sample_stale{table="events"} 1`)) {
		t.Fatalf("prom exposition missing stale gauge:\n%s", buf.String())
	}
}
