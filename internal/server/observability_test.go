package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestCounterSumPrefixGuard: a counter family summed from the registry's
// sample does not absorb a family that shares its name prefix.
func TestCounterSumPrefixGuard(t *testing.T) {
	m := NewMetrics()
	m.Add(Key("queries_total", "technique", "exact"), 3)
	m.Add(Key("queries_total", "technique", "online"), 4)
	m.Add("queries_total_errors", 100) // shared name prefix, different family
	m.Add("queries_totally_unrelated", 100)

	if got := telemetry.FamilySum(m.Sample().Counters, "queries_total"); got != 7 {
		t.Fatalf("FamilySum(queries_total) = %g, want 7 (must not absorb queries_total_errors)", got)
	}
	// An unlabeled counter matches its own family exactly.
	m.Add("rows_scanned_total", 42)
	if got := telemetry.FamilySum(m.Sample().Counters, "rows_scanned_total"); got != 42 {
		t.Fatalf("FamilySum(rows_scanned_total) = %g, want 42", got)
	}
}

func TestHistogramPerKeyBounds(t *testing.T) {
	m := NewMetrics()
	m.ObserveWith("w", 0.0022, errorWidthBuckets)
	m.ObserveWith("w", 0.9, errorWidthBuckets)
	m.Observe("lat", 0.0022) // default latency bounds, in seconds

	snap := newSnapshot(m.Sample(), nil, nil)
	w := snap.Histograms["w"]
	if w.Count != 2 || w.Min != 0.0022 || w.Max != 0.9 {
		t.Fatalf("w = %+v, want count 2, min 0.0022, max 0.9", w)
	}
	// 0.0022 lands in le=0.0025 with error-width bounds; with the latency
	// bounds it lands in le=0.005.
	if w.Buckets["le=0.0025"] != 1 || w.Buckets["le=1"] != 1 || len(w.Buckets) != 2 {
		t.Fatalf("w buckets = %v, want le=0.0025:1 le=1:1", w.Buckets)
	}
	lat := snap.Histograms["lat"]
	if lat.Buckets["le=0.005"] != 1 || len(lat.Buckets) != 1 {
		t.Fatalf("lat buckets = %v, want le=0.005:1", lat.Buckets)
	}
}

// promSeries is one parsed exposition line: name, labels, value.
type promSeries struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm is a minimal Prometheus text-format 0.0.4 parser: it returns
// the TYPE declarations, the HELP texts, and every sample line, failing
// the test on any line it cannot parse.
func parseProm(t *testing.T, text string) (types, helps map[string]string, series []promSeries) {
	t.Helper()
	types = make(map[string]string)
	helps = make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("bad TYPE line: %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			fam, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("bad HELP line: %q", line)
			}
			helps[fam] = help
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("bad sample line: %q", line)
		}
		id, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		s := promSeries{labels: map[string]string{}, value: val}
		if i := strings.IndexByte(id, '{'); i >= 0 {
			s.name = id[:i]
			body := strings.TrimSuffix(id[i+1:], "}")
			for _, pair := range strings.Split(body, ",") {
				eq := strings.IndexByte(pair, '=')
				if eq < 0 {
					t.Fatalf("bad label pair %q in %q", pair, line)
				}
				v, err := strconv.Unquote(pair[eq+1:])
				if err != nil {
					t.Fatalf("bad label value %q in %q: %v", pair, line, err)
				}
				s.labels[pair[:eq]] = v
			}
		} else {
			s.name = id
		}
		series = append(series, s)
	}
	return types, helps, series
}

func TestPrometheusExposition(t *testing.T) {
	// Above the online engine's MinTableRows threshold so approximate
	// queries actually sample (and emit CI-width telemetry).
	db := buildDB(t, 60000)
	srv := New(db, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postQuery(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM t", Mode: "exact"})
	postQuery(t, ts.URL, QueryRequest{SQL: "SELECT SUM(x) FROM t WITH ERROR 5% CONFIDENCE 95%"})
	postQuery(t, ts.URL, QueryRequest{SQL: "SELECT AVG(x) FROM t", Mode: "online"})

	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	types, helps, series := parseProm(t, string(body))

	// Every declared family carries a HELP line, and the registered
	// families carry their curated sentence rather than the fallback.
	for fam := range types {
		if helps[fam] == "" {
			t.Fatalf("family %q declared without a HELP line", fam)
		}
	}
	for _, fam := range []string{"queries_total", "query_latency_seconds", "uptime_seconds"} {
		if strings.HasPrefix(helps[fam], "aqpd metric") {
			t.Fatalf("family %q has fallback HELP %q, want a curated sentence", fam, helps[fam])
		}
	}

	// Latency is recorded once, in seconds: no family is in milliseconds,
	// and the latency buckets are second bounds (the largest finite one is
	// 5 s; a millisecond family would reach 5000).
	for fam := range types {
		if strings.HasSuffix(fam, "_ms") {
			t.Fatalf("family %q is in milliseconds", fam)
		}
	}
	if types["query_latency_seconds"] != "histogram" {
		t.Fatalf("query_latency_seconds type = %q, want histogram", types["query_latency_seconds"])
	}
	var les []float64
	for _, s := range series {
		if s.name == "query_latency_seconds_bucket" && s.labels["technique"] == "exact" && s.labels["le"] != "+Inf" {
			le, _ := strconv.ParseFloat(s.labels["le"], 64)
			les = append(les, le)
		}
	}
	if len(les) != len(latencyBuckets) || les[0] != 0.001 || les[len(les)-1] != 5 {
		t.Fatalf("query_latency_seconds bounds = %v, want 0.001 … 5 seconds", les)
	}

	if types["queries_total"] != "counter" {
		t.Fatalf("queries_total type = %q, want counter (types: %v)", types["queries_total"], types)
	}
	if types["query_ci_rel_width"] != "histogram" {
		t.Fatalf("query_ci_rel_width type = %q, want histogram (approx queries ran)", types["query_ci_rel_width"])
	}
	if types["uptime_seconds"] != "gauge" || types["aqpd_build_info"] != "gauge" {
		t.Fatalf("gauge types missing: %v", types)
	}

	// Histogram invariants: buckets cumulative and non-decreasing, the
	// +Inf bucket equals _count, and every series of a histogram family
	// is declared. Group by family+technique label.
	counts := map[string]float64{}  // family|technique -> _count
	infs := map[string]float64{}    // family|technique -> +Inf bucket
	lastCum := map[string]float64{} // running cumulative check
	for _, s := range series {
		tech := s.labels["technique"]
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			fam := strings.TrimSuffix(s.name, "_bucket")
			k := fam + "|" + tech
			if s.value < lastCum[k] {
				t.Fatalf("%s buckets not cumulative: %v after %v", k, s.value, lastCum[k])
			}
			lastCum[k] = s.value
			if s.labels["le"] == "+Inf" {
				infs[k] = s.value
			}
			if types[fam] != "histogram" {
				t.Fatalf("undeclared histogram family %q", fam)
			}
		case strings.HasSuffix(s.name, "_count"):
			counts[strings.TrimSuffix(s.name, "_count")+"|"+tech] = s.value
		}
	}
	if len(counts) == 0 {
		t.Fatal("no histogram _count series found")
	}
	for k, c := range counts {
		if infs[k] != c {
			t.Fatalf("%s: +Inf bucket %v != count %v", k, infs[k], c)
		}
	}

	// Build info carries the identity labels.
	found := false
	for _, s := range series {
		if s.name == "aqpd_build_info" {
			found = true
			if s.labels["go_version"] == "" || s.labels["module"] == "" {
				t.Fatalf("build info labels missing: %v", s.labels)
			}
		}
	}
	if !found {
		t.Fatal("aqpd_build_info series missing")
	}

	// The JSON format is unchanged by the prom path and carries Info.
	snap := getMetrics(t, ts.URL)
	if snap.Counters == nil || snap.Histograms == nil || snap.Gauges == nil {
		t.Fatalf("JSON snapshot shape changed: %+v", snap)
	}
	if snap.Info["go_version"] == "" {
		t.Fatalf("JSON snapshot missing build info: %v", snap.Info)
	}
	if _, ok := snap.Gauges["uptime_seconds"]; !ok {
		t.Fatal("uptime_seconds gauge missing")
	}
	for k := range snap.Histograms {
		if fam, _ := splitKey(k); strings.HasSuffix(fam, "_ms") {
			t.Fatalf("JSON histogram %q is in milliseconds", k)
		}
	}
}

// stalledWriter is a scraper that stopped reading: its first Write closes
// entered, and every Write blocks until release is closed.
type stalledWriter struct {
	header           http.Header
	entered, release chan struct{}
	once             sync.Once
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

// TestStalledScrapeDoesNotBlockQueries: a /metrics?format=prom scraper
// that stops reading mid-body holds no lock a query needs, so a
// concurrent query still completes and files its metrics.
func TestStalledScrapeDoesNotBlockQueries(t *testing.T) {
	srv := New(buildDB(t, 1000), Config{})
	h := srv.Handler()
	query := func() int {
		body, _ := json.Marshal(QueryRequest{SQL: "SELECT COUNT(*) FROM t", Mode: "exact"})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		return rec.Code
	}
	query() // the registry has series to render

	sw := &stalledWriter{header: http.Header{}, entered: make(chan struct{}), release: make(chan struct{})}
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		h.ServeHTTP(sw, httptest.NewRequest(http.MethodGet, "/metrics?format=prom", nil))
	}()
	defer func() { close(sw.release); <-scraped }()
	select {
	case <-sw.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the scrape never wrote")
	}

	done := make(chan int, 1)
	go func() { done <- query() }()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("query status %d during a stalled scrape", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a query did not complete while a scrape was stalled mid-body")
	}
	if n := telemetry.FamilySum(srv.Metrics().Sample().Counters, "queries_total"); n != 2 {
		t.Fatalf("queries_total = %g, want 2", n)
	}
}

func TestTraceFlagEmbedsProfile(t *testing.T) {
	db := buildDB(t, 20000)
	srv := New(db, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := QueryRequest{SQL: "SELECT SUM(x), COUNT(*) FROM t WHERE x > 10 GROUP BY g", Mode: "exact"}
	resp, plain, _ := postQuery(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("untraced status = %d", resp.StatusCode)
	}
	if plain.Trace != nil {
		t.Fatal("untraced response carries a trace")
	}

	req.Trace = true
	resp, traced, _ := postQuery(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced status = %d", resp.StatusCode)
	}
	if traced.Trace == nil {
		t.Fatal("trace requested but response has none")
	}
	if traced.Trace.Name != "query" {
		t.Fatalf("trace root = %q, want query", traced.Trace.Name)
	}
	if traced.Trace.Find("engine exact") == nil {
		t.Fatalf("no engine span in trace:\n%s", traced.Trace.String())
	}
	// The morsel path fuses the scan into the aggregate operator; the
	// aggregate span and its worker children must be present.
	if traced.Trace.Find("HashAggregate") == nil {
		t.Fatalf("no aggregate operator span in trace:\n%s", traced.Trace.String())
	}
	if traced.Trace.Find("worker 0") == nil {
		t.Fatalf("no worker span in trace:\n%s", traced.Trace.String())
	}
	// Tracing only observes: rows are bit-identical.
	if !reflect.DeepEqual(plain.Rows, traced.Rows) {
		t.Fatalf("traced rows differ from untraced:\n%v\n%v", plain.Rows, traced.Rows)
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	db := buildDB(t, 5000)
	// SlowQuery of 1ns marks every completed query slow.
	srv := New(db, Config{Logger: logger, SlowQuery: time.Nanosecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postQuery(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM t", Mode: "exact"})
	postQuery(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM missing", Mode: "exact"})

	var slow, failed bool
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		switch rec["msg"] {
		case "slow query":
			slow = true
			if rec["level"] != "WARN" || rec["technique"] != "exact" || rec["sql"] == "" {
				t.Fatalf("slow query record malformed: %v", rec)
			}
		case "query failed":
			failed = true
			if rec["level"] != "WARN" || rec["err"] == "" {
				t.Fatalf("failure record malformed: %v", rec)
			}
		}
	}
	if !slow || !failed {
		t.Fatalf("missing log records (slow=%v failed=%v):\n%s", slow, failed, buf.String())
	}
}

func TestPprofGated(t *testing.T) {
	db := buildDB(t, 100)

	off := httptest.NewServer(New(db, Config{}).Handler())
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof reachable without EnablePprof")
	}

	on := httptest.NewServer(New(db, Config{EnablePprof: true}).Handler())
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status = %d with EnablePprof", resp.StatusCode)
	}
}
