package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/insight"
)

var updateFilingPin = flag.Bool("update-filing-pin", false, "rewrite testdata/filing_pin.json")

// filingPinCase is what the post-serve observers filed for one request: the
// counter values and histogram counts, each flight record's outcome fields,
// and the workload-insight totals. Latencies and timestamps vary run to run
// and are left out.
type filingPinCase struct {
	Name       string            `json:"name"`
	Status     int               `json:"status"`
	Counters   map[string]int64  `json:"counters"`
	Histograms map[string]int64  `json:"histograms"`
	Flight     []filingPinRecord `json:"flight"`
	Insight    filingPinInsight  `json:"insight"`
	Faults     []fault.Rule      `json:"-"`
	Request    QueryRequest      `json:"-"`
}

type filingPinRecord struct {
	Status       int    `json:"status"`
	Technique    string `json:"technique,omitempty"`
	DegradedFrom string `json:"degraded_from,omitempty"`
	Fingerprint  string `json:"fingerprint,omitempty"`
	Err          string `json:"err,omitempty"`
}

type filingPinInsight struct {
	Offered     uint64 `json:"offered"`
	Errors      int64  `json:"errors"`
	Unparseable uint64 `json:"unparseable"`
}

// TestServedFilingPin pins what a served query leaves behind in every sink
// — metrics, flight recorder, workload insight and (through the audit
// counters) the auditor — for each way a query can end: success, CI-carrying
// success, contract, parse failure, deadline, ladder degradation, injected
// error and contained panic. Each case runs on a fresh server with
// telemetry on and every approximate answer audited; the auditor is drained
// (under the case's faults) before the sinks are read.
func TestServedFilingPin(t *testing.T) {
	t.Cleanup(fault.Uninstall)
	db := buildDB(t, 100000)
	cases := []filingPinCase{
		{Name: "exact", Request: QueryRequest{SQL: "SELECT COUNT(*) FROM t", Mode: "exact"}},
		{Name: "online-ci", Request: QueryRequest{SQL: "SELECT g, SUM(x) FROM t GROUP BY g", Mode: "online", RelError: 0.1}},
		{Name: "with-error-contract", Request: QueryRequest{
			SQL: "SELECT SUM(x) FROM t WITH ERROR 5% CONFIDENCE 95%", Mode: "online", Contract: true}},
		{Name: "parse-failure", Request: QueryRequest{SQL: "SELEC x FROM t", Mode: "exact"}},
		{Name: "deadline", Request: QueryRequest{SQL: "SELECT AVG(x) FROM t", Mode: "exact", TimeoutMS: 1, NoDegrade: true},
			Faults: []fault.Rule{{Point: "exec.morsel", Kind: fault.KindLatency, P: 1, Latency: 5 * time.Millisecond}}},
		{Name: "ladder-degraded", Request: QueryRequest{SQL: "SELECT SUM(x) FROM t", Mode: "exact"},
			Faults: []fault.Rule{{Point: "core.exact", Kind: fault.KindPanic, P: 1}}},
		{Name: "injected-error", Request: QueryRequest{SQL: "SELECT COUNT(*) FROM t", Mode: "exact"},
			Faults: []fault.Rule{{Point: "server.query", Kind: fault.KindError, P: 1}}},
		{Name: "handler-panic", Request: QueryRequest{SQL: "SELECT COUNT(*) FROM t", Mode: "exact"},
			Faults: []fault.Rule{{Point: "server.query", Kind: fault.KindPanic, P: 1}}},
	}
	for i := range cases {
		c := &cases[i]
		cfg := telemetryConfig()
		cfg.AuditFraction, cfg.AuditSeed = 1, 1
		srv := New(db, cfg)
		if len(c.Faults) > 0 {
			fault.Install(fault.Schedule{Seed: 1, Rules: c.Faults})
		}
		body, _ := json.Marshal(c.Request)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		c.Status = rec.Code
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := srv.Auditor().Drain(ctx); err != nil {
			t.Fatalf("%s: audit drain: %v", c.Name, err)
		}
		cancel()
		fault.Uninstall()

		snap := srv.Metrics().Snapshot(nil)
		c.Counters = snap.Counters
		c.Histograms = map[string]int64{}
		for k, h := range snap.Histograms {
			c.Histograms[k] = h.Count
		}
		c.Flight = []filingPinRecord{}
		for _, qr := range srv.FlightBundle("pin").Queries {
			c.Flight = append(c.Flight, filingPinRecord{Status: qr.Status, Technique: qr.Technique,
				DegradedFrom: qr.DegradedFrom, Fingerprint: qr.Fingerprint, Err: qr.Err})
		}
		sum := srv.WorkloadRegistry().Summary()
		c.Insight = filingPinInsight{Offered: sum.Offered, Unparseable: sum.Unparseable}
		for _, card := range srv.WorkloadRegistry().Top(100, insight.ByTraffic) {
			c.Insight.Errors += card.Errors
		}
		srv.Shutdown(context.Background())
	}

	blob, err := json.MarshalIndent(cases, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	path := filepath.Join("testdata", "filing_pin.json")
	if *updateFilingPin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("filing pin: %v (run with -update-filing-pin to generate)", err)
	}
	if !bytes.Equal(blob, want) {
		t.Errorf("post-serve filing drifted from %s (first differing case: %s)", path, firstFilingPinDiff(blob, want))
	}
}

// firstFilingPinDiff names the first case whose pinned form differs.
func firstFilingPinDiff(got, want []byte) string {
	var g, w []filingPinCase
	if json.Unmarshal(got, &g) != nil || json.Unmarshal(want, &w) != nil || len(g) != len(w) {
		return "case lists differ"
	}
	for i := range g {
		a, _ := json.Marshal(g[i])
		b, _ := json.Marshal(w[i])
		if !bytes.Equal(a, b) {
			return fmt.Sprintf("%s\n got: %s\nwant: %s", g[i].Name, a, b)
		}
	}
	return "none"
}
