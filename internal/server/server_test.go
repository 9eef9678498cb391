package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	aqp "repro"
	"repro/internal/fault"
)

// buildDB creates a db with one table t(id BIGINT, x DOUBLE, g VARCHAR)
// of n rows. x ~ U(0, 100); g cycles through 8 groups.
func buildDB(t testing.TB, n int, opts ...aqp.Option) *aqp.DB {
	t.Helper()
	db := aqp.New(opts...)
	tbl, err := db.CreateTable("t", aqp.Schema{
		{Name: "id", Type: aqp.TypeInt64},
		{Name: "x", Type: aqp.TypeFloat64},
		{Name: "g", Type: aqp.TypeString},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const batch = 8192
	rows := make([][]aqp.Value, 0, batch)
	for i := 0; i < n; i++ {
		rows = append(rows, []aqp.Value{
			aqp.Int64(int64(i)),
			aqp.Float64(rng.Float64() * 100),
			aqp.Str(fmt.Sprintf("g%d", i%8)),
		})
		if len(rows) == batch {
			if err := tbl.AppendRows(rows); err != nil {
				t.Fatal(err)
			}
			rows = rows[:0]
		}
	}
	if len(rows) > 0 {
		if err := tbl.AppendRows(rows); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func postQuery(t testing.TB, url string, req QueryRequest) (*http.Response, QueryResponse, ErrorResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	defer resp.Body.Close()
	var ok QueryResponse
	var bad ErrorResponse
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &ok); err != nil {
			t.Fatalf("decode response: %v: %s", err, buf.String())
		}
	} else {
		_ = json.Unmarshal(buf.Bytes(), &bad)
	}
	return resp, ok, bad
}

func getMetrics(t testing.TB, url string) Snapshot {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestQueryEndpointExactAndApprox(t *testing.T) {
	db := buildDB(t, 20000)
	srv := New(db, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, ok, _ := postQuery(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM t", Mode: "exact"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exact status = %d", resp.StatusCode)
	}
	if ok.Technique != "exact" || ok.Guarantee != "exact" {
		t.Fatalf("exact: technique=%s guarantee=%s", ok.Technique, ok.Guarantee)
	}
	if got := ok.Rows[0][0].(float64); got != 20000 {
		t.Fatalf("COUNT(*) = %v, want 20000", got)
	}

	resp, ok, _ = postQuery(t, ts.URL, QueryRequest{
		SQL: "SELECT SUM(x) FROM t WITH ERROR 5% CONFIDENCE 95%",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("approx status = %d", resp.StatusCode)
	}
	if ok.Technique == "" || ok.Guarantee == "" {
		t.Fatalf("approx missing annotations: %+v", ok)
	}
	if len(ok.Items) == 0 || !ok.Items[0][0].HasCI {
		t.Fatalf("approx answer has no CI: %+v", ok.Items)
	}
	found := false
	for _, m := range ok.Messages {
		if strings.HasPrefix(m, "advisor: ") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no advisor message in %v", ok.Messages)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	db := buildDB(t, 100)
	srv := New(db, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _, bad := postQuery(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM nosuch", Mode: "exact"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing table: status = %d (%s)", resp.StatusCode, bad.Error)
	}
	resp, _, _ = postQuery(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM t", Mode: "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad mode: status = %d", resp.StatusCode)
	}
	resp, _, _ = postQuery(t, ts.URL, QueryRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty sql: status = %d", resp.StatusCode)
	}
}

// TestOLADeadlinePartial is the headline graceful-degradation behavior:
// a deadline far too small to scan 2^20 rows still yields a progressive
// estimate with an a-posteriori interval, not an error.
func TestOLADeadlinePartial(t *testing.T) {
	db := buildDB(t, 1<<20, aqp.WithOLAConfig(aqp.OLAConfig{
		ChunkRows: 2048, MaxFraction: 1, StopWhenSpecMet: false, Seed: 3, MaxBuildRows: 1 << 20,
	}))
	srv := New(db, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, ok, bad := postQuery(t, ts.URL, QueryRequest{
		SQL:       "SELECT AVG(x) FROM t",
		Mode:      "ola",
		RelError:  0.0001,
		TimeoutMS: 15,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ola under deadline: status = %d (%s)", resp.StatusCode, bad.Error)
	}
	if !ok.Partial {
		t.Fatalf("expected a partial (deadline-truncated) answer, got full scan of %d rows", ok.RowsScanned)
	}
	if ok.RowsScanned <= 0 || ok.RowsScanned >= 1<<20 {
		t.Fatalf("partial answer scanned %d rows, want 0 < n < 2^20", ok.RowsScanned)
	}
	if ok.Guarantee != "a-posteriori" {
		t.Fatalf("deadline stop is data-independent, guarantee should stay a-posteriori; got %s", ok.Guarantee)
	}
	if len(ok.Items) == 0 || !ok.Items[0][0].HasCI || ok.Items[0][0].CIHi <= ok.Items[0][0].CILo {
		t.Fatalf("partial answer lacks a usable CI: %+v", ok.Items)
	}
	// True mean is ~50; the estimate should be in the right ballpark.
	got := ok.Rows[0][0].(float64)
	if got < 40 || got > 60 {
		t.Fatalf("partial AVG(x) = %v, want ~50", got)
	}

	// A non-OLA engine under the same impossible deadline is
	// all-or-nothing, but the degradation ladder substitutes a partial
	// OLA estimate rather than failing: 200 with degraded:true. Every
	// morsel is slowed so the exact scan cannot beat 1 ms on any machine.
	fault.Install(fault.Schedule{Seed: 3, Rules: []fault.Rule{
		{Point: "exec.morsel", Kind: fault.KindLatency, P: 1, Latency: 5 * time.Millisecond},
	}})
	t.Cleanup(fault.Uninstall)
	resp, ok, bad = postQuery(t, ts.URL, QueryRequest{
		SQL: "SELECT AVG(x) FROM t", Mode: "exact", TimeoutMS: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exact under 1ms deadline with ladder: status = %d (%s), want degraded 200", resp.StatusCode, bad.Error)
	}
	if !ok.Degraded || ok.DegradedFrom != "exact" {
		t.Fatalf("ladder answer not flagged: degraded=%v degraded_from=%q", ok.Degraded, ok.DegradedFrom)
	}

	// With the ladder disabled for the request, the old contract holds:
	// past the deadline there is no estimate, so 504.
	resp, _, _ = postQuery(t, ts.URL, QueryRequest{
		SQL: "SELECT AVG(x) FROM t", Mode: "exact", TimeoutMS: 1, NoDegrade: true,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("exact under 1ms deadline, no_degrade: status = %d, want 504", resp.StatusCode)
	}
	fault.Uninstall()

	snap := getMetrics(t, ts.URL)
	if snap.Counters["queries_partial_total"] == 0 {
		t.Fatalf("queries_partial_total not advanced: %v", snap.Counters)
	}
	if snap.Counters[Key("queries_total", "technique", "online-aggregation")] == 0 {
		t.Fatalf("per-technique counter not advanced: %v", snap.Counters)
	}
	if snap.Counters["queries_deadline_total"] == 0 {
		t.Fatalf("queries_deadline_total not advanced: %v", snap.Counters)
	}
}

func TestTablesAndSamplesEndpoints(t *testing.T) {
	db := buildDB(t, 20000)
	srv := New(db, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	var tables []TableInfo
	if err := json.NewDecoder(resp.Body).Decode(&tables); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(tables) != 1 || tables[0].Name != "t" || tables[0].Rows != 20000 {
		t.Fatalf("tables = %+v", tables)
	}
	if len(tables[0].Columns) != 3 || tables[0].Columns[1].Type != "DOUBLE" {
		t.Fatalf("columns = %+v", tables[0].Columns)
	}

	body, _ := json.Marshal(BuildSamplesRequest{
		Table:   "t",
		QCS:     [][]string{{"g"}},
		Profile: []string{"SELECT SUM(x) FROM t GROUP BY g"},
	})
	resp, err = http.Post(ts.URL+"/samples/build", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var built BuildSamplesResponse
	if err := json.NewDecoder(resp.Body).Decode(&built); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("samples/build status = %d", resp.StatusCode)
	}
	if len(built.Samples) == 0 {
		t.Fatalf("no samples built: %+v", built)
	}
	for _, s := range built.Samples {
		if !s.Fresh {
			t.Fatalf("freshly built sample reported stale: %+v", s)
		}
	}

	// The samples now show up on /tables too.
	resp, err = http.Get(ts.URL + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	tables = nil
	json.NewDecoder(resp.Body).Decode(&tables)
	resp.Body.Close()
	if len(tables[0].Samples) == 0 {
		t.Fatalf("samples missing from /tables: %+v", tables[0])
	}
}

// TestSheddingUnderLoad drives 16 concurrent clients at a 1-worker,
// 1-slot-queue server running slow queries: most must be shed with 429
// and the shed counter must advance; nothing may 500.
func TestSheddingUnderLoad(t *testing.T) {
	db := buildDB(t, 1<<20)
	srv := New(db, Config{Workers: 1, QueueCap: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := make(map[int]int)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _, _ := postQuery(t, ts.URL, QueryRequest{
				SQL: "SELECT SUM(x), COUNT(*) FROM t WHERE x > 1", Mode: "exact",
			})
			mu.Lock()
			statuses[resp.StatusCode]++
			mu.Unlock()
		}()
	}
	wg.Wait()

	if statuses[http.StatusOK] == 0 {
		t.Fatalf("no queries succeeded: %v", statuses)
	}
	if statuses[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no queries shed at workers=1 queue=1 with %d clients: %v", clients, statuses)
	}
	for code := range statuses {
		if code != http.StatusOK && code != http.StatusTooManyRequests {
			t.Fatalf("unexpected status %d: %v", code, statuses)
		}
	}
	snap := getMetrics(t, ts.URL)
	if snap.Counters["queries_shed_total"] == 0 {
		t.Fatalf("queries_shed_total not advanced: %v", snap.Counters)
	}
	if int(snap.Counters["queries_shed_total"]) != statuses[http.StatusTooManyRequests] {
		t.Fatalf("shed counter %d != observed 429s %d",
			snap.Counters["queries_shed_total"], statuses[http.StatusTooManyRequests])
	}
}

// TestGracefulShutdownDrains verifies Shutdown lets running queries
// finish while refusing new ones.
func TestGracefulShutdownDrains(t *testing.T) {
	db := buildDB(t, 1<<20)
	srv := New(db, Config{Workers: 4, QueueCap: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Pin every query in-flight with injected post-admission latency:
	// on a fast machine the bare scans finish before all four clients'
	// requests overlap, and the drain would have nothing to observe.
	fault.Install(fault.Schedule{Seed: 1, Rules: []fault.Rule{
		{Point: "server.query", Kind: fault.KindLatency, P: 1, Latency: 300 * time.Millisecond},
	}})
	defer fault.Uninstall()

	const running = 4
	results := make(chan int, running)
	for i := 0; i < running; i++ {
		go func() {
			resp, _, _ := postQuery(t, ts.URL, QueryRequest{
				SQL: "SELECT SUM(x), AVG(x) FROM t WHERE x > 1", Mode: "exact",
			})
			results <- resp.StatusCode
		}()
	}
	// Wait until all queries hold worker slots, then start draining —
	// anything not yet admitted when the drain begins would get 503.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Admission().InFlight() < running && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := srv.Admission().InFlight(); got < running {
		t.Fatalf("only %d of %d queries started", got, running)
	}

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- srv.Shutdown(ctx)
	}()
	// New queries are refused while draining.
	deadline = time.Now().Add(2 * time.Second)
	for !srv.Admission().Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	resp, _, _ := postQuery(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM t", Mode: "exact"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: status = %d, want 503", resp.StatusCode)
	}
	// Healthz flips to draining.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status = %d, want 503", hresp.StatusCode)
	}

	if err := <-drainDone; err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
	// Every in-flight query finished normally.
	for i := 0; i < running; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("in-flight query finished with %d, want 200", code)
		}
	}
	if n := srv.Admission().InFlight(); n != 0 {
		t.Fatalf("in-flight after drain = %d", n)
	}
}

func TestMetricsEndpointShape(t *testing.T) {
	db := buildDB(t, 5000)
	srv := New(db, Config{Workers: 3, QueueCap: 5})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		postQuery(t, ts.URL, QueryRequest{SQL: "SELECT COUNT(*) FROM t", Mode: "exact"})
	}
	snap := getMetrics(t, ts.URL)
	if got := snap.Counters[Key("queries_total", "technique", "exact")]; got != 3 {
		t.Fatalf("exact counter = %d, want 3", got)
	}
	if snap.Counters["rows_scanned_total"] != 3*5000 {
		t.Fatalf("rows_scanned_total = %d, want 15000", snap.Counters["rows_scanned_total"])
	}
	h, okh := snap.Histograms[Key("query_latency_seconds", "technique", "exact")]
	if !okh || h.Count != 3 || h.Sum <= 0 {
		t.Fatalf("latency histogram = %+v", h)
	}
	if snap.Gauges["workers"] != 3 || snap.Gauges["queue_capacity"] != 5 {
		t.Fatalf("gauges = %v", snap.Gauges)
	}
}

func TestLoadCSVReaderInference(t *testing.T) {
	db := aqp.New()
	csvData := "id,price,name,active\n1,9.5,apple,true\n2,3,banana,false\n3,,cherry,true\n"
	tbl, err := LoadCSVReader(db, "fruit", strings.NewReader(csvData))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 3 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	sch := tbl.Schema()
	want := []aqp.Type{aqp.TypeInt64, aqp.TypeFloat64, aqp.TypeString, aqp.TypeBool}
	for i, w := range want {
		if sch[i].Type != w {
			t.Fatalf("column %s type = %v, want %v", sch[i].Name, sch[i].Type, w)
		}
	}
	res, err := db.Query("SELECT SUM(price) FROM fruit")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Float(0, 0); got != 12.5 {
		t.Fatalf("SUM(price) = %v, want 12.5 (NULL skipped)", got)
	}
}

// TestLoadCSVPathsAgree: aqpd's inferring loader and aqp.DB.LoadCSV parse
// cells by one rule — trimmed, NULL in any case, true/false in any case —
// so one CSV loaded through both, under the inferred schema, gives the
// same table.
func TestLoadCSVPathsAgree(t *testing.T) {
	const csvData = "id,price,name,active\n" +
		" 1, 9.5 , apple ,TRUE\n" +
		"2,3,banana,false\n" +
		"Null,,cherry,null\n" +
		"4,NULL, ,True\n"
	inferred, err := LoadCSVReader(aqp.New(), "fruit", strings.NewReader(csvData))
	if err != nil {
		t.Fatal(err)
	}
	typed, err := aqp.New().LoadCSV("fruit", inferred.Schema(), strings.NewReader(csvData))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := aqp.DumpTableCSV(&a, inferred); err != nil {
		t.Fatal(err)
	}
	if err := aqp.DumpTableCSV(&b, typed); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("loader table:\n%s\nLoadCSV table:\n%s", a.String(), b.String())
	}
	want := []aqp.Type{aqp.TypeInt64, aqp.TypeFloat64, aqp.TypeString, aqp.TypeBool}
	for i, w := range want {
		if got := inferred.Schema()[i].Type; got != w {
			t.Fatalf("column %s type = %v, want %v", inferred.Schema()[i].Name, got, w)
		}
	}
}

// TestLoadCSVReaderRefusesRaggedRows: a row wider or narrower than the
// header is a read error, and the refused CSV registers no table.
func TestLoadCSVReaderRefusesRaggedRows(t *testing.T) {
	for name, csvData := range map[string]string{
		"short": "id,price,name\n1,9.5,apple\n2,3\n",
		"long":  "id,price,name\n1,9.5,apple\n2,3,banana,extra\n",
	} {
		db := aqp.New()
		if _, err := LoadCSVReader(db, "fruit", strings.NewReader(csvData)); err == nil ||
			!strings.Contains(err.Error(), "wrong number of fields") {
			t.Fatalf("%s row: err = %v, want a wrong-number-of-fields refusal", name, err)
		}
		if _, err := db.Table("fruit"); err == nil {
			t.Fatalf("%s row: refused CSV registered table fruit", name)
		}
	}
}

// TestLoadCSVReaderRefusesRepeatedColumns: a header that names a column
// twice, or not at all, would leave a column no query can reach; the load
// is refused and registers no table.
func TestLoadCSVReaderRefusesRepeatedColumns(t *testing.T) {
	for _, csvData := range []string{"a,a\n1,2\n", "a, a \n1,2\n", "a,\n1,2\n"} {
		db := aqp.New()
		if _, err := LoadCSVReader(db, "t", strings.NewReader(csvData)); err == nil {
			t.Errorf("%q: loaded", csvData)
		}
		if _, err := db.Table("t"); err == nil {
			t.Errorf("%q: refused CSV registered table t", csvData)
		}
	}
}

func TestAdmissionUnit(t *testing.T) {
	a := NewAdmission(2, 1)
	r1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Third waits in the queue; fourth is shed.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		r3, err := a.Acquire(ctx)
		if err == nil {
			r3()
		}
		errc <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for a.QueueDepth() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if a.QueueDepth() != 1 {
		t.Fatalf("queue depth = %d, want 1", a.QueueDepth())
	}
	if _, err := a.Acquire(context.Background()); err != ErrShed {
		t.Fatalf("4th acquire err = %v, want ErrShed", err)
	}
	// Cancel the queued waiter.
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("queued waiter err = %v, want context.Canceled", err)
	}
	r1()
	r2()
	if err := a.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Acquire(context.Background()); err != ErrDraining {
		t.Fatalf("post-drain acquire err = %v, want ErrDraining", err)
	}
}
