package server

// The flight recorder keeps each query's tracer, and every span view —
// the bundle's span trees, /debug/spans, a traced reply — is rendered
// from it when read. These tests hold the views to that one record.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func countSpans(p *trace.Profile) int {
	n := 1
	for _, c := range p.Children {
		n += countSpans(c)
	}
	return n
}

var traceIDPattern = regexp.MustCompile(`^[0-9a-f]{32}$`)

// TestEveryEndingFilesItsTrace: the endings that leave the handler before
// the query runs — an injected error and a contained panic at the
// server.query seam — file a trace ID and an ended query root span too.
func TestEveryEndingFilesItsTrace(t *testing.T) {
	t.Cleanup(fault.Uninstall)
	db := buildDB(t, 5000)
	for _, kind := range []fault.Kind{fault.KindError, fault.KindPanic} {
		srv := New(db, telemetryConfig())
		ts := httptest.NewServer(srv.Handler())
		fault.Install(fault.Schedule{Seed: 1, Rules: []fault.Rule{{Point: "server.query", Kind: kind, P: 1}}})
		resp, _, _ := postQuery(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM t", Mode: "exact"})
		fault.Uninstall()
		if resp.StatusCode < 500 {
			t.Fatalf("%v: status %d", kind, resp.StatusCode)
		}
		var b telemetry.Bundle
		getJSON(t, ts.URL+"/debug/flightrecord", &b)
		if len(b.Queries) != 1 {
			t.Fatalf("%v: %d flight records, want 1", kind, len(b.Queries))
		}
		qr := b.Queries[0]
		if !traceIDPattern.MatchString(qr.TraceID) {
			t.Errorf("%v: trace_id %q", kind, qr.TraceID)
		}
		// A positive duration: File ended the root (a running one reads 0).
		if qr.Spans == nil || qr.Spans.Name != "query" || qr.Spans.TraceID != qr.TraceID || qr.Spans.DurationMS <= 0 {
			t.Errorf("%v: spans %+v, want an ended query root in trace %s", kind, qr.Spans, qr.TraceID)
		}
		ts.Close()
		srv.Shutdown(context.Background())
	}
}

// TestSpanFeedIsFlightRecord: /debug/spans holds exactly the span trees of
// the flight bundle's records, so an errored query the notable ring keeps
// is in the feed after more than 1024 newer spans.
func TestSpanFeedIsFlightRecord(t *testing.T) {
	srv := New(buildDB(t, 5000), telemetryConfig())
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _, _ := postQuery(t, ts.URL, QueryRequest{SQL: "SELECT SUM(nope) FROM t", Mode: "exact"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("errored query: status %d", resp.StatusCode)
	}
	errTID, _, ok := trace.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatalf("errored query: traceparent %q", resp.Header.Get("traceparent"))
	}
	for spans := 0; spans <= 1024; {
		resp, ok, _ := postQuery(t, ts.URL, QueryRequest{SQL: "SELECT g, SUM(x) FROM t GROUP BY g", Mode: "exact", Trace: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("traffic: status %d", resp.StatusCode)
		}
		spans += countSpans(ok.Trace)
	}

	var b telemetry.Bundle
	getJSON(t, ts.URL+"/debug/flightrecord", &b)
	var feed telemetry.OTLPFeed
	getJSON(t, ts.URL+"/debug/spans", &feed)
	var want, got []string
	for _, qr := range b.Queries {
		if qr.Spans != nil {
			want = append(want, qr.TraceID)
		}
	}
	seen := map[string]bool{}
	for _, sp := range feed.ResourceSpans[0].ScopeSpans[0].Spans {
		if !seen[sp.TraceID] {
			seen[sp.TraceID] = true
			got = append(got, sp.TraceID)
		}
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("feed holds %d traces, bundle records %d:\nfeed   %v\nbundle %v", len(got), len(want), got, want)
	}
	if !seen[errTID.String()] {
		t.Fatalf("errored query %s not in the feed", errTID)
	}
}

// TestFiledRootEndsWithTheQuery: the root span is ended when the query is
// filed, not when a dump renders it, so its duration is the query's.
func TestFiledRootEndsWithTheQuery(t *testing.T) {
	srv := New(buildDB(t, 5000), telemetryConfig())
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if resp, _, _ := postQuery(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM t", Mode: "exact"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	time.Sleep(50 * time.Millisecond)
	qr := srv.FlightBundle("test").Queries[0]
	if d := qr.Spans.DurationMS; d <= 0 || d > qr.LatencyMS+5 {
		t.Fatalf("root duration %.3f ms, query latency %.3f ms", d, qr.LatencyMS)
	}
}

// TestTraceIDIsOneString: the reply's trace_id, the traceparent header's
// trace-id field and the flight record's trace_id are the same string.
func TestTraceIDIsOneString(t *testing.T) {
	srv := New(buildDB(t, 5000), telemetryConfig())
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, ok, _ := postQuery(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM t", Mode: "exact"})
	if resp.StatusCode != http.StatusOK || len(ok.TraceID) != 32 {
		t.Fatalf("status %d, trace_id %q", resp.StatusCode, ok.TraceID)
	}
	if hdr := resp.Header.Get("traceparent"); len(hdr) != 55 || hdr[3:35] != ok.TraceID {
		t.Fatalf("traceparent %q, reply trace_id %q", hdr, ok.TraceID)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.FlightBundle("test").Queries) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if qs := srv.FlightBundle("test").Queries; len(qs) != 1 || qs[0].TraceID != ok.TraceID {
		t.Fatalf("flight records %+v, reply trace_id %q", qs, ok.TraceID)
	}
}

// TestSpanReadersRaceServing: the span views walk live span trees while
// queries are served and filed; run it under -race.
func TestSpanReadersRaceServing(t *testing.T) {
	cfg := telemetryConfig()
	cfg.FlightQueries = 8
	srv := New(buildDB(t, 5000), cfg)
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	reqs := []QueryRequest{
		{SQL: "SELECT g, SUM(x) FROM t GROUP BY g", Mode: "exact", Trace: true},
		{SQL: "SELECT SUM(x) FROM t", Mode: "online", RelError: 0.1},
		{SQL: "SELECT SUM(nope) FROM t", Mode: "exact"},
	}
	done := make(chan struct{})
	var readers, servers sync.WaitGroup
	for _, path := range []string{"/debug/spans", "/debug/flightrecord"} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d", path, resp.StatusCode)
					return
				}
			}
		}()
	}
	for g := 0; g < 3; g++ {
		servers.Add(1)
		go func() {
			defer servers.Done()
			for i := 0; i < 20; i++ {
				req := reqs[(g+i)%len(reqs)]
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("%s: %v", req.SQL, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest {
					t.Errorf("%s: status %d", req.SQL, resp.StatusCode)
				}
			}
		}()
	}
	servers.Wait()
	close(done)
	readers.Wait()
}
