package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sqlparse"
)

// TestParseFailureObservableBehaviour pins what a client and an operator
// see when the SQL does not parse, now that the handler parses once up
// front: the 400 body is the parser's message, the failure is counted
// (queries_errors_total, /workload's unparseable tally, a 400 flight
// record), and the parse happens after admission — an overloaded server
// sheds unparseable requests like any other instead of answering them.
func TestParseFailureObservableBehaviour(t *testing.T) {
	const bad = "SELEKT 1 FROM"
	_, perr := sqlparse.Parse(bad)
	if perr == nil {
		t.Fatal("fixture SQL parses")
	}
	cfg := telemetryConfig()
	cfg.Workers, cfg.QueueCap = 1, 1
	srv := New(buildDB(t, 1000), cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _, body := postQuery(t, ts.URL, QueryRequest{SQL: bad, Mode: "online"})
	if resp.StatusCode != http.StatusBadRequest || body.Error != perr.Error() {
		t.Fatalf("unparseable SQL: %d %q, want 400 %q", resp.StatusCode, body.Error, perr)
	}
	if got := getMetrics(t, ts.URL).Counters["queries_errors_total"]; got != 1 {
		t.Errorf("queries_errors_total = %d, want 1", got)
	}
	var wr WorkloadResponse
	if code := getJSON(t, ts.URL+"/workload", &wr); code != http.StatusOK {
		t.Fatalf("GET /workload: %d", code)
	}
	if wr.Summary.Unparseable != 1 || wr.Summary.Fingerprints != 0 {
		t.Errorf("workload summary = %+v, want 1 unparseable, no card", wr.Summary)
	}
	if qs := srv.FlightBundle("test").Queries; len(qs) != 1 || qs[0].Status != http.StatusBadRequest || qs[0].Err != perr.Error() {
		t.Errorf("flight record = %+v, want one 400 carrying the parse error", qs)
	}

	// Occupy the one worker and the one queue slot with requests held
	// post-admission; a third, unparseable request must be shed (429), not
	// parsed and answered 400.
	fault.Install(fault.Schedule{Seed: 1, Rules: []fault.Rule{
		{Point: "server.query", Kind: fault.KindLatency, P: 1, Latency: 500 * time.Millisecond},
	}})
	defer fault.Uninstall()
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, _, _ := postQuery(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM t", Mode: "exact"})
			resp.Body.Close()
			done <- struct{}{}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for (srv.Admission().InFlight() < 1 || srv.Admission().QueueDepth() < 1) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	resp, _, body = postQuery(t, ts.URL, QueryRequest{SQL: bad})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("unparseable SQL on a full server: %d %q, want 429", resp.StatusCode, body.Error)
	}
	<-done
	<-done
}
