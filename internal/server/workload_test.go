package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	aqp "repro"
	"repro/internal/insight"
)

// TestWorkloadEndpointMixedWorkload: literal variants collapse onto one
// scorecard and GET /workload ranks the dominant template first.
func TestWorkloadEndpointMixedWorkload(t *testing.T) {
	db := buildDB(t, 20_000)
	srv := New(db, telemetryConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Dominant template: 6 literal variants of the same shape.
	var domFP string
	for _, lit := range []string{"10", "20", "30", "40", "50", "60"} {
		resp, ok, bad := postQuery(t, ts.URL, QueryRequest{
			SQL: "SELECT SUM(x) FROM t WHERE x < " + lit, Mode: "exact"})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query: %d %s", resp.StatusCode, bad.Error)
		}
		if ok.Fingerprint == "" {
			t.Fatal("query response missing fingerprint")
		}
		if domFP == "" {
			domFP = ok.Fingerprint
		} else if ok.Fingerprint != domFP {
			t.Fatalf("literal variant changed fingerprint: %s vs %s", ok.Fingerprint, domFP)
		}
	}
	// Minority shape, twice, via the online engine.
	for i := 0; i < 2; i++ {
		resp, _, bad := postQuery(t, ts.URL, QueryRequest{
			SQL: "SELECT AVG(x) FROM t", Mode: "online", RelError: 0.5, Confidence: 0.95})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("online query: %d %s", resp.StatusCode, bad.Error)
		}
	}

	var wr WorkloadResponse
	if code := getJSON(t, ts.URL+"/workload", &wr); code != http.StatusOK {
		t.Fatalf("GET /workload: %d", code)
	}
	if !wr.Enabled || wr.By != insight.ByTraffic {
		t.Fatalf("workload response header = %+v", wr)
	}
	if wr.Summary.Fingerprints != 2 || wr.Summary.Offered != 8 {
		t.Fatalf("summary = %+v, want 2 fingerprints over 8 offers", wr.Summary)
	}
	if len(wr.Top) != 2 {
		t.Fatalf("top has %d cards", len(wr.Top))
	}
	dom := wr.Top[0]
	if dom.Fingerprint != domFP || dom.Queries != 6 {
		t.Fatalf("dominant card = %+v, want fingerprint %s with 6 queries", dom, domFP)
	}
	if !strings.Contains(dom.Template, "?") || dom.Table != "t" {
		t.Fatalf("dominant card not literal-normalized: %+v", dom)
	}
	if !reflect.DeepEqual(dom.QCS, []string{"x"}) {
		t.Fatalf("dominant card QCS = %v", dom.QCS)
	}
	if len(dom.Techniques) != 1 || dom.Techniques[0].Technique != "exact" || dom.Techniques[0].Queries != 6 {
		t.Fatalf("dominant technique mix = %+v", dom.Techniques)
	}
	if dom.RowsScanned == 0 || dom.LatencyP95MS <= 0 {
		t.Fatalf("dominant card missing cost stats: %+v", dom)
	}

	// The minority card carries its own technique sub-scorecard. (The
	// technique is whatever the engine honestly reported — a loose error
	// spec may complete as exact.)
	min := wr.Top[1]
	if min.Queries != 2 || len(min.Techniques) == 0 || min.Techniques[0].Queries != 2 {
		t.Fatalf("minority card = %+v", min)
	}

	// ?n= truncates, ?by= validates.
	if code := getJSON(t, ts.URL+"/workload?n=1", &wr); code != http.StatusOK || len(wr.Top) != 1 {
		t.Fatalf("?n=1: code %d, %d cards", code, len(wr.Top))
	}
	if code := getJSON(t, ts.URL+"/workload?n=zero", nil); code != http.StatusBadRequest {
		t.Fatalf("bad n: %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/workload?by=velocity", nil); code != http.StatusBadRequest {
		t.Fatalf("bad by: %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/workload?by=latency", &wr); code != http.StatusOK || wr.By != insight.ByLatency {
		t.Fatalf("?by=latency: code %d, by %q", code, wr.By)
	}

	// The fingerprint gauge reaches /metrics.
	srv.TelemetryStore().Snap()
	snap := getMetrics(t, ts.URL)
	if got := snap.Gauges["workload_fingerprints"]; got != 2 {
		t.Fatalf("workload_fingerprints gauge = %d, want 2", got)
	}
}

// TestWorkloadGating: no telemetry, or a negative cap, disables the
// endpoint.
func TestWorkloadGating(t *testing.T) {
	db := buildDB(t, 1000)
	plain := httptest.NewServer(New(db, Config{}).Handler())
	defer plain.Close()
	if code := getJSON(t, plain.URL+"/workload", nil); code != http.StatusNotFound {
		t.Fatalf("without telemetry: %d, want 404", code)
	}

	cfg := telemetryConfig()
	cfg.WorkloadCap = -1
	optOut := httptest.NewServer(New(db, cfg).Handler())
	defer optOut.Close()
	if code := getJSON(t, optOut.URL+"/workload", nil); code != http.StatusNotFound {
		t.Fatalf("with negative cap: %d, want 404", code)
	}

	srv := New(db, telemetryConfig())
	enabled := httptest.NewServer(srv.Handler())
	defer enabled.Close()
	resp, err := http.Post(enabled.URL+"/workload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /workload: %d, want 405", resp.StatusCode)
	}
}

// TestWorkloadSeededRegression: a seeded latency jump on one fingerprint
// trips its sentinel — the transition reaches the flight recorder, the
// regression counter, and the scorecard's active list; a bystander
// fingerprint stays clean.
func TestWorkloadSeededRegression(t *testing.T) {
	db := buildDB(t, 1000)
	srv := New(db, telemetryConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reg := srv.WorkloadRegistry()
	if reg == nil {
		t.Fatal("insight registry not wired under telemetry")
	}
	victim := "SELECT SUM(x) FROM t WHERE x > 5"
	bystander := "SELECT COUNT(*) FROM t"
	// The sentinel compares two 64-observation halves: fill both at the
	// baseline, then put four slow observations in the current half, enough
	// to move its p95.
	var victimFP string
	for i := 0; i < 128; i++ {
		victimFP = reg.Offer(victim, insight.Observation{Technique: "online", LatencyMS: 10})
		reg.Offer(bystander, insight.Observation{Technique: "exact", LatencyMS: 10})
	}
	for i := 0; i < 4; i++ {
		reg.Offer(victim, insight.Observation{Technique: "online", LatencyMS: 400})
		reg.Offer(bystander, insight.Observation{Technique: "exact", LatencyMS: 10})
	}

	// Counter, labeled by signal.
	snap := getMetrics(t, ts.URL)
	if got := snap.Counters[`workload_regressions_total{signal="latency_p95"}`]; got != 1 {
		t.Fatalf("workload_regressions_total = %d (counters %v)", got, snap.Counters)
	}

	// Flight record carries the transition on the shared timeline.
	b := srv.FlightBundle("test")
	found := false
	for _, ev := range b.Events {
		if ev.Kind == "workload_regression" {
			if ev.Name != victimFP {
				t.Fatalf("regression event names %q, want %q", ev.Name, victimFP)
			}
			if !strings.Contains(ev.Detail, "latency_p95") {
				t.Fatalf("regression event detail %q", ev.Detail)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no workload_regression event in flight record (events %+v)", b.Events)
	}

	// The card shows the active regression; the bystander stays clean.
	var wr WorkloadResponse
	if code := getJSON(t, ts.URL+"/workload?by=regressions", &wr); code != http.StatusOK {
		t.Fatalf("GET /workload: %d", code)
	}
	if wr.Top[0].Fingerprint != victimFP || wr.Top[0].Regressions != 1 {
		t.Fatalf("top-by-regressions = %+v", wr.Top[0])
	}
	if !reflect.DeepEqual(wr.Top[0].Active, []string{insight.SignalLatency}) {
		t.Fatalf("active = %v", wr.Top[0].Active)
	}
	if wr.Top[1].Regressions != 0 || len(wr.Top[1].Active) != 0 {
		t.Fatalf("bystander card tripped: %+v", wr.Top[1])
	}
}

// TestWorkloadFingerprintInFlightRecord: served queries land in the
// flight recorder stamped with their fingerprint.
func TestWorkloadFingerprintInFlightRecord(t *testing.T) {
	db := buildDB(t, 5000)
	srv := New(db, telemetryConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, ok, bad := postQuery(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM t WHERE x < 7", Mode: "exact"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, bad.Error)
	}
	b := srv.FlightBundle("test")
	if len(b.Queries) == 0 {
		t.Fatal("no query records")
	}
	qr := b.Queries[len(b.Queries)-1]
	if qr.Fingerprint == "" || qr.Fingerprint != ok.Fingerprint {
		t.Fatalf("flight record fingerprint %q, response fingerprint %q", qr.Fingerprint, ok.Fingerprint)
	}
}

// TestWorkloadBitIdentitySharded: enabling insight (riding telemetry)
// changes no result bit-wise on a sharded table, across worker counts.
func TestWorkloadBitIdentitySharded(t *testing.T) {
	queries := []QueryRequest{
		{SQL: "SELECT SUM(x) FROM t WHERE x < 50", Mode: "exact"},
		{SQL: "SELECT g, AVG(x), COUNT(*) FROM t GROUP BY g ORDER BY g", Mode: "exact"},
		{SQL: "SELECT COUNT(*) FROM t WHERE x >= 0", Mode: "auto", RelError: 0.5, Confidence: 0.95},
	}
	run := func(cfg Config, workers int) []QueryResponse {
		db := buildDB(t, 20_000)
		if _, err := db.ShardTable("t", aqp.ShardKey{Column: "id", Kind: aqp.ShardHash, Count: 4}); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(New(db, cfg).Handler())
		defer ts.Close()
		var out []QueryResponse
		for _, q := range queries {
			q.Workers = workers
			resp, ok, bad := postQuery(t, ts.URL, q)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%q: status %d: %s", q.SQL, resp.StatusCode, bad.Error)
			}
			ok.LatencyMS = 0
			ok.Messages = nil
			ok.TraceID = ""
			ok.Trace = nil
			ok.Workers = 0
			out = append(out, ok)
		}
		return out
	}

	base := run(Config{}, 0)
	for name, got := range map[string][]QueryResponse{
		"insight on":            run(telemetryConfig(), 0),
		"insight on, 1 worker":  run(telemetryConfig(), 1),
		"insight on, 4 workers": run(telemetryConfig(), 4),
	} {
		if !reflect.DeepEqual(base, got) {
			t.Errorf("%s: responses differ from insight-off baseline\nbase: %+v\ngot:  %+v", name, base, got)
		}
	}
}

// TestWorkloadAuditCoverageFeed: auditor verdicts reach the
// (fingerprint, technique) coverage window — the per-shape answer to
// "do this shape's error bars hold up".
func TestWorkloadAuditCoverageFeed(t *testing.T) {
	_, db := auditEvents(t)
	cfg := telemetryConfig()
	cfg.Workers = 4
	cfg.AuditFraction = 1
	cfg.AuditQueueCap = 64
	cfg.AuditWindow = 64
	srv := New(db, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	const n = 25
	var fp string
	for i := 0; i < n; i++ {
		resp, ok, bad := postQuery(t, ts.URL, QueryRequest{
			SQL: windowSQL(i), Mode: "online", RelError: 0.5, Confidence: 0.95,
		})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, resp.StatusCode, bad.Error)
		}
		fp = ok.Fingerprint
	}
	drainAuditor(t, srv)

	var wr WorkloadResponse
	if code := getJSON(t, ts.URL+"/workload", &wr); code != http.StatusOK {
		t.Fatalf("GET /workload: %d", code)
	}
	// Every windowSQL differs only in its ev_ts literals: one card.
	if wr.Summary.Fingerprints != 1 || wr.Top[0].Fingerprint != fp {
		t.Fatalf("summary = %+v, top = %+v", wr.Summary, wr.Top)
	}
	card := wr.Top[0]
	if card.Queries != n {
		t.Fatalf("card queries = %d, want %d", card.Queries, n)
	}
	var covN int
	var covHi float64
	for _, tc := range card.Techniques {
		covN += tc.CoverageN
		if tc.CoverageHi > covHi {
			covHi = tc.CoverageHi
		}
	}
	if covN != n {
		t.Fatalf("audited coverage window holds %d outcomes, want %d (techniques %+v)", covN, n, card.Techniques)
	}
	if covHi <= 0 || covHi > 1 {
		t.Fatalf("Wilson upper bound = %v", covHi)
	}
}
