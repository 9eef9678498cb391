package server

// End-to-end tests for the observability layer: telemetry endpoints,
// SLO fast-burn auto-dumps driven by chaos, traceparent propagation
// through shard scatter, and the bit-identity invariant with telemetry
// enabled. The fault registry is process-global, so chaos tests never
// run in parallel and always disarm on cleanup.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	aqp "repro"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// telemetryConfig is the base config for a telemetry-enabled test
// server. The store cadence is irrelevant because tests drive Snap()
// explicitly — the ticker is never started.
func telemetryConfig() Config {
	return Config{
		Telemetry:     true,
		DegradeBudget: 2 * time.Second,
	}
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decode %s: %v: %s", url, err, body)
		}
	}
	return resp.StatusCode
}

// TestTelemetryEndpointsGated: without Config.Telemetry the four new
// endpoints 404 so a telemetry-less deployment's surface is unchanged.
func TestTelemetryEndpointsGated(t *testing.T) {
	db := buildDB(t, 1000)
	ts := httptest.NewServer(New(db, Config{}).Handler())
	defer ts.Close()

	for _, path := range []string{"/metrics/history", "/slo", "/debug/flightrecord", "/debug/spans"} {
		if code := getJSON(t, ts.URL+path, nil); code != http.StatusNotFound {
			t.Errorf("%s without telemetry: status %d, want 404", path, code)
		}
	}
}

// TestTelemetryHistoryAndSLO drives the time-series store through two
// manual snapshots around a query burst and checks the derived history
// (rates, windowed quantiles), the /slo evaluation, and the SLO gauge
// families on both /metrics formats.
func TestTelemetryHistoryAndSLO(t *testing.T) {
	db := buildDB(t, 20000)
	srv := New(db, telemetryConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.TelemetryStore().Snap() // baseline: zero counters
	for i := 0; i < 5; i++ {
		resp, _, bad := postQuery(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM t", Mode: "exact"})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, resp.StatusCode, bad.Error)
		}
	}
	srv.TelemetryStore().Snap() // second edge: 5 queries in the delta

	var hist HistoryResponse
	url := ts.URL + "/metrics/history?window=15m&step=10s&rate=queries_total&quantile=0.99:query_latency_ms"
	if code := getJSON(t, url, &hist); code != http.StatusOK {
		t.Fatalf("/metrics/history: status %d", code)
	}
	if len(hist.Samples) < 2 {
		t.Fatalf("history has %d samples, want >= 2", len(hist.Samples))
	}
	rates := hist.Rates["queries_total"]
	if len(rates) == 0 {
		t.Fatal("no rate points for queries_total")
	}
	if rates[len(rates)-1].V <= 0 {
		t.Fatalf("queries_total rate = %v, want > 0 after a query burst", rates[len(rates)-1].V)
	}
	quants := hist.Quantiles["0.99:query_latency_ms"]
	if len(quants) == 0 {
		t.Fatal("no quantile points for query_latency_ms")
	}
	if v := quants[len(quants)-1].V; !(v >= 0) {
		t.Fatalf("p99 latency = %v, want finite >= 0", v)
	}
	if code := getJSON(t, ts.URL+"/metrics/history?window=banana", nil); code != http.StatusBadRequest {
		t.Errorf("bad window: status %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/metrics/history?quantile=nope", nil); code != http.StatusBadRequest {
		t.Errorf("bad quantile spec: status %d, want 400", code)
	}

	var slo SLOResponse
	if code := getJSON(t, ts.URL+"/slo", &slo); code != http.StatusOK {
		t.Fatalf("/slo: status %d", code)
	}
	byName := map[string]telemetry.ObjectiveStatus{}
	for _, o := range slo.Objectives {
		byName[o.Objective.Name] = o
	}
	for _, name := range []string{"latency_p99", "audit_coverage", "contract_hold", "degradation_rate"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("default objective %q missing from /slo: %+v", name, slo.Objectives)
		}
	}
	// Five fast, non-degraded queries: latency and degradation hold.
	if st := byName["latency_p99"].State; st != "ok" {
		t.Errorf("latency_p99 state = %q, want ok (%+v)", st, byName["latency_p99"])
	}
	if st := byName["degradation_rate"].State; st != "ok" {
		t.Errorf("degradation_rate state = %q, want ok (%+v)", st, byName["degradation_rate"])
	}
	// No audits ran: the coverage objective must abstain, not page.
	if st := byName["audit_coverage"].State; st != "warming" {
		t.Errorf("audit_coverage state = %q, want warming with no audit events", st)
	}

	// SLO gauge families on both exposition formats.
	snap := getMetrics(t, ts.URL)
	if len(snap.GaugesF) == 0 {
		t.Fatal("JSON /metrics has no gauges_float with telemetry on")
	}
	foundBurn := false
	for k := range snap.GaugesF {
		if strings.HasPrefix(k, "slo_burn_rate{") {
			foundBurn = true
		}
	}
	if !foundBurn {
		t.Fatalf("no slo_burn_rate gauge in %v", snap.GaugesF)
	}
	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	types, _, series := parseProm(t, string(body))
	if types["slo_burn_rate"] != "gauge" || types["slo_error_budget_remaining"] != "gauge" {
		t.Fatalf("SLO gauge families not declared: %v", types)
	}
	var burnSeries, budgetSeries int
	for _, s := range series {
		switch s.name {
		case "slo_burn_rate":
			burnSeries++
			if s.labels["objective"] == "" || (s.labels["window"] != "fast" && s.labels["window"] != "slow") {
				t.Fatalf("malformed slo_burn_rate labels: %v", s.labels)
			}
		case "slo_error_budget_remaining":
			budgetSeries++
		}
	}
	if burnSeries != 8 || budgetSeries != 4 {
		t.Fatalf("slo series: %d burn, %d budget; want 8 and 4 (4 objectives)", burnSeries, budgetSeries)
	}
}

// TestChaosSLOFastBurnFlightDump is the headline e2e: chaos forces every
// exact query onto the degradation ladder, the degradation-rate
// objective enters fast_burn at the next snapshot, and the SLO engine
// auto-dumps a flight-recorder bundle that holds the offending queries'
// span trees and the fault fires that caused them.
func TestChaosSLOFastBurnFlightDump(t *testing.T) {
	t.Cleanup(fault.Uninstall)
	db := buildDB(t, 20000)
	if err := db.BuildOfflineSamples("t", [][]string{{"g"}}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var dumps []telemetry.Bundle
	cfg := telemetryConfig()
	cfg.FlightSink = func(b telemetry.Bundle) {
		mu.Lock()
		dumps = append(dumps, b)
		mu.Unlock()
	}
	srv := New(db, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.TelemetryStore().Snap() // baseline edge

	fault.Install(fault.Schedule{Seed: 1, Rules: []fault.Rule{
		{Point: "core.exact", Kind: fault.KindPanic, P: 1},
	}})
	for i := 0; i < 4; i++ {
		resp, ok, bad := postQuery(t, ts.URL, QueryRequest{SQL: "SELECT SUM(x) FROM t WHERE x < 50", Mode: "exact"})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d (%s), want 200 via ladder", i, resp.StatusCode, bad.Error)
		}
		if !ok.Degraded {
			t.Fatalf("query %d not degraded under forced panic", i)
		}
	}
	fault.Uninstall()

	// The snapshot drives SLO evaluation: 4/4 queries degraded in the
	// delta is a 100% bad fraction against a 5% ceiling — burn rate 20 in
	// both windows, over the default fast-burn threshold of 14.
	srv.TelemetryStore().Snap()

	mu.Lock()
	got := append([]telemetry.Bundle(nil), dumps...)
	mu.Unlock()
	if len(got) == 0 {
		t.Fatal("fast burn did not auto-dump a flight bundle")
	}
	b := got[0]
	if b.Reason != "slo_fast_burn:degradation_rate" {
		t.Fatalf("bundle reason = %q, want slo_fast_burn:degradation_rate", b.Reason)
	}
	if len(b.SLO) == 0 {
		t.Fatal("bundle carries no SLO statuses")
	}
	fastBurnSeen := false
	for _, st := range b.SLO {
		if st.Objective.Name == "degradation_rate" && st.State == "fast_burn" {
			fastBurnSeen = true
		}
	}
	if !fastBurnSeen {
		t.Fatalf("bundle SLO block does not show degradation_rate in fast_burn: %+v", b.SLO)
	}
	// The offending queries are pinned with their span trees and the
	// fault fires that felled them.
	degraded := 0
	for _, qr := range b.Queries {
		if !qr.Degraded {
			continue
		}
		degraded++
		if qr.Keep != "degraded" {
			t.Errorf("degraded query seq %d keep = %q, want degraded", qr.Seq, qr.Keep)
		}
		if qr.Spans == nil {
			t.Errorf("degraded query seq %d has no span tree", qr.Seq)
		} else if qr.Spans.Find("engine exact") == nil && qr.Spans.Find("engine offline") == nil &&
			qr.Spans.Find("engine ola") == nil && qr.Spans.Find("engine synopsis") == nil {
			t.Errorf("degraded query seq %d span tree has no engine span:\n%s", qr.Seq, qr.Spans.String())
		}
		fireAttributed := false
		for _, ev := range qr.Events {
			if ev.Kind == "fault_fire" && ev.Name == "core.exact" {
				fireAttributed = true
			}
		}
		if !fireAttributed {
			t.Errorf("degraded query seq %d has no attributed core.exact fault fire: %+v", qr.Seq, qr.Events)
		}
	}
	if degraded != 4 {
		t.Fatalf("bundle holds %d degraded queries, want 4", degraded)
	}
	fires := 0
	for _, ev := range b.Events {
		if ev.Kind == "fault_fire" {
			fires++
		}
	}
	if fires == 0 {
		t.Fatal("bundle event ring holds no fault fires")
	}

	// The page is counted, the engine stays in fast_burn on /slo, and a
	// second snapshot does not re-fire the edge-triggered dump.
	snap := getMetrics(t, ts.URL)
	if snap.Counters[Key("slo_fast_burn_total", "objective", "degradation_rate")] == 0 {
		t.Error("slo_fast_burn_total{objective=degradation_rate} not incremented")
	}
	srv.TelemetryStore().Snap()
	mu.Lock()
	n := len(dumps)
	mu.Unlock()
	if n != len(got) {
		t.Fatalf("fast burn re-fired while still burning: %d dumps, want %d", n, len(got))
	}

	// The on-demand endpoint serves the same shape.
	var http1 telemetry.Bundle
	if code := getJSON(t, ts.URL+"/debug/flightrecord", &http1); code != http.StatusOK {
		t.Fatalf("/debug/flightrecord: status %d", code)
	}
	if http1.Reason != "http" || len(http1.Queries) == 0 {
		t.Fatalf("on-demand bundle reason=%q queries=%d", http1.Reason, len(http1.Queries))
	}
}

// TestTraceparentThroughShardScatter sends an inbound W3C traceparent on
// a query over a sharded table and asserts the caller's trace ID
// reappears on the wire response, in the response header, and on the
// exported spans of every shard scatter leg — each leg additionally
// carrying its own traceparent attribute for remote-shard propagation.
func TestTraceparentThroughShardScatter(t *testing.T) {
	db := buildDB(t, 20000)
	if _, err := db.ShardTable("t", aqp.ShardKey{Column: "id", Kind: aqp.ShardHash, Count: 4}); err != nil {
		t.Fatal(err)
	}
	srv := New(db, telemetryConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const inbound = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	const wantTID = "4bf92f3577b34da6a3ce929d0e0e4736"
	body := strings.NewReader(`{"sql": "SELECT COUNT(*) FROM t", "mode": "exact"}`)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/query", body)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", inbound)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("query: status %d: %s", resp.StatusCode, raw)
	}
	var ok QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&ok); err != nil {
		t.Fatal(err)
	}
	if ok.TraceID != wantTID {
		t.Fatalf("response trace_id = %q, want inbound %q", ok.TraceID, wantTID)
	}
	hdr := resp.Header.Get("traceparent")
	tid, sid, valid := trace.ParseTraceparent(hdr)
	if !valid {
		t.Fatalf("response traceparent %q does not parse", hdr)
	}
	if tid.String() != wantTID {
		t.Fatalf("response traceparent trace ID = %s, want %s", tid, wantTID)
	}
	if sid.IsZero() {
		t.Fatal("response traceparent has a zero span ID")
	}

	var feed telemetry.OTLPFeed
	if code := getJSON(t, ts.URL+"/debug/spans", &feed); code != http.StatusOK {
		t.Fatalf("/debug/spans: status %d", code)
	}
	if len(feed.ResourceSpans) != 1 || len(feed.ResourceSpans[0].ScopeSpans) != 1 {
		t.Fatalf("feed envelope shape: %+v", feed)
	}
	service := ""
	for _, a := range feed.ResourceSpans[0].Resource.Attributes {
		if a.Key == "service.name" {
			service = a.Value.StringValue
		}
	}
	if service != "aqpd" {
		t.Fatalf("service.name = %q", service)
	}
	spans := feed.ResourceSpans[0].ScopeSpans[0].Spans
	shardLegs := map[string]bool{} // leg span name -> has traceparent attr
	rootSeen := false
	for _, sp := range spans {
		if sp.TraceID != wantTID {
			t.Fatalf("span %q trace ID %q, want inbound %s", sp.Name, sp.TraceID, wantTID)
		}
		if sp.SpanID == "" || sp.StartTimeUnixNano == "" || sp.EndTimeUnixNano == "" {
			t.Fatalf("span %q missing identity or timestamps: %+v", sp.Name, sp)
		}
		if sp.Name == "query" && sp.Kind == 2 {
			rootSeen = true
			// The server root's parent is the caller's span from the header.
			if sp.ParentSpanID != "00f067aa0ba902b7" {
				t.Fatalf("root parent span = %q, want caller's 00f067aa0ba902b7", sp.ParentSpanID)
			}
		}
		if strings.HasPrefix(sp.Name, "shard ") {
			hasTP := false
			for _, a := range sp.Attributes {
				if a.Key == "traceparent" {
					hasTP = true
					legTID, _, valid := trace.ParseTraceparent(a.Value.StringValue)
					if !valid {
						t.Fatalf("leg %q traceparent attr %q does not parse", sp.Name, a.Value.StringValue)
					}
					if legTID.String() != wantTID {
						t.Fatalf("leg %q traceparent carries trace %s, want %s", sp.Name, legTID, wantTID)
					}
				}
			}
			shardLegs[sp.Name] = hasTP
		}
	}
	if !rootSeen {
		t.Fatal("no SERVER-kind query root span exported")
	}
	if len(shardLegs) != 4 {
		t.Fatalf("exported %d shard scatter legs, want 4: %v", len(shardLegs), shardLegs)
	}
	for name, hasTP := range shardLegs {
		if !hasTP {
			t.Fatalf("scatter leg %q has no traceparent attribute", name)
		}
	}
}

// TestTelemetryBitIdentity asserts telemetry stays observational: the
// same queries return bit-identical rows with telemetry off vs on, with
// 1 vs 4 workers under telemetry, and with trace on vs off.
func TestTelemetryBitIdentity(t *testing.T) {
	queries := []QueryRequest{
		{SQL: "SELECT SUM(x) FROM t WHERE x < 50", Mode: "exact"},
		{SQL: "SELECT g, AVG(x), COUNT(*) FROM t GROUP BY g ORDER BY g", Mode: "exact"},
		{SQL: "SELECT SUM(x) FROM t WHERE x < 50", Mode: "online", RelError: 0.5, Confidence: 0.95},
		{SQL: "SELECT COUNT(*) FROM t WHERE x >= 0", Mode: "auto", RelError: 0.5, Confidence: 0.95},
	}
	run := func(cfg Config, mutate func(*QueryRequest)) []QueryResponse {
		db := buildDB(t, 20000)
		srv := New(db, cfg)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		var out []QueryResponse
		for _, q := range queries {
			if mutate != nil {
				mutate(&q)
			}
			resp, ok, bad := postQuery(t, ts.URL, q)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %q: status %d: %s", q.Mode, q.SQL, resp.StatusCode, bad.Error)
			}
			// Normalize observational fields; everything else must match.
			ok.LatencyMS = 0
			ok.Messages = nil
			ok.TraceID = ""
			ok.Trace = nil
			ok.Workers = 0
			out = append(out, ok)
		}
		return out
	}

	base := run(Config{}, nil)
	for name, got := range map[string][]QueryResponse{
		"telemetry on":         run(telemetryConfig(), nil),
		"telemetry + 1 worker": run(telemetryConfig(), func(q *QueryRequest) { q.Workers = 1 }),
		"telemetry + 4 worker": run(telemetryConfig(), func(q *QueryRequest) { q.Workers = 4 }),
		"trace on":             run(Config{}, func(q *QueryRequest) { q.Trace = true }),
	} {
		if !reflect.DeepEqual(base, got) {
			t.Errorf("%s: responses differ from telemetry-off baseline\nbase: %+v\ngot:  %+v", name, base, got)
		}
	}
}

// TestFlightRecorderPanicDump: a contained handler panic auto-dumps a
// bundle through the sink with reason "panic".
func TestFlightRecorderPanicDump(t *testing.T) {
	t.Cleanup(fault.Uninstall)
	db := buildDB(t, 5000)
	var mu sync.Mutex
	var dumps []telemetry.Bundle
	cfg := telemetryConfig()
	cfg.DegradeBudget = -1 // ladder off: the panic must escape to the handler scope
	cfg.FlightSink = func(b telemetry.Bundle) {
		mu.Lock()
		dumps = append(dumps, b)
		mu.Unlock()
	}
	srv := New(db, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fault.Install(fault.Schedule{Seed: 1, Rules: []fault.Rule{
		{Point: "server.query", Kind: fault.KindPanic, P: 1},
	}})
	resp, _, _ := postQuery(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM t", Mode: "exact"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked handler status = %d, want 500", resp.StatusCode)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(dumps) == 0 {
		t.Fatal("handler panic did not dump a flight bundle")
	}
	if dumps[0].Reason != "panic" {
		t.Fatalf("bundle reason = %q, want panic", dumps[0].Reason)
	}
	// The dump is for the query that panicked: it must be in it.
	var found bool
	for _, qr := range dumps[0].Queries {
		found = found || (qr.Status == http.StatusInternalServerError && qr.SQL == "SELECT COUNT(*) FROM t")
	}
	if !found {
		t.Fatalf("panic dump lacks the panicked query: %+v", dumps[0].Queries)
	}
}

// TestHistoryGaugesMatchMetrics: the time-series collector and /metrics
// read one gauge set, so every gauge /metrics serves is in the history too.
func TestHistoryGaugesMatchMetrics(t *testing.T) {
	cfg := telemetryConfig()
	cfg.AuditFraction = 1
	srv := New(buildDB(t, 2000), cfg)
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postQuery(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM t", Mode: "exact"})

	smp := srv.TelemetryStore().Snap()
	for k := range getMetrics(t, ts.URL).Gauges {
		if _, ok := smp.Gauges[k]; !ok {
			t.Errorf("gauge %s served by /metrics but missing from the history sample", k)
		}
	}
}
