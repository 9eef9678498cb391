package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	aqp "repro"
	"repro/internal/fault"
	"repro/internal/shard"
)

// remoteCluster is a full remote-shard topology under test: a coordinator
// serving the query API whose shards live behind real ShardServer
// handlers (httptest stands in for the process boundary — same handlers,
// same bytes).
type remoteCluster struct {
	coord     *httptest.Server
	srv       *Server
	shardSrvs []*httptest.Server
}

// startRemoteCluster builds a coordinator whose table "t" scatters over
// count real shard servers. Partitions come from an identically seeded
// copy of the data, as a real deployment would load aqpgen-emitted
// partition files.
func startRemoteCluster(t *testing.T, rows, count int, opt aqp.RemoteShardOptions, cfg Config, dbOpts ...aqp.Option) *remoteCluster {
	t.Helper()
	key := aqp.ShardKey{Column: "id", Kind: aqp.ShardHash, Count: count}

	dbPart := buildDB(t, rows)
	gp, err := dbPart.ShardTable("t", key)
	if err != nil {
		t.Fatal(err)
	}
	c := &remoteCluster{}
	var addrs []string
	for i := 0; i < count; i++ {
		ss := NewShardServer(gp.ShardTable(i), ShardServerConfig{ShardID: i, Table: "t"})
		srv := httptest.NewServer(ss.Handler())
		c.shardSrvs = append(c.shardSrvs, srv)
		addrs = append(addrs, srv.URL)
	}

	db := buildDB(t, rows, dbOpts...)
	if _, err := db.AttachRemoteShards("t", key, addrs, opt); err != nil {
		t.Fatalf("attach remote shards: %v", err)
	}
	c.srv = New(db, cfg)
	c.coord = httptest.NewServer(c.srv.Handler())
	t.Cleanup(func() {
		c.coord.Close()
		db.Close()
		for _, s := range c.shardSrvs {
			s.Close()
		}
	})
	return c
}

// samplingOnline lowers the online engine's size threshold so the 20k-row
// test table actually gets sampled — the default 50k floor would silently
// run exact and the sampled-path assertions would test nothing.
func samplingOnline() aqp.Option {
	return aqp.WithOnlineConfig(aqp.OnlineConfig{DefaultRate: 0.1, MinTableRows: 1_000, Seed: 1})
}

// normalizeResp zeroes the volatile response fields (latency, messages,
// trace identity) so two runs compare on substance: rows, CI bounds,
// guarantees, coverage.
func normalizeResp(r QueryResponse) QueryResponse {
	r.LatencyMS = 0
	r.Messages = nil
	r.Trace = nil
	r.TraceID = ""
	return r
}

// TestRemoteClusterBitIdenticalToLocal: the full server path over remote
// shards — estimates AND CI bounds — must be bit-identical to the same
// server over in-process shards at the same N and seeds, for exact and
// sampled engines. The process boundary must be invisible in the answer.
func TestRemoteClusterBitIdenticalToLocal(t *testing.T) {
	const rows = 20_000
	for _, count := range []int{2, 4} {
		// Local twin: same data, same key, in-process shards.
		ldb := buildDB(t, rows, samplingOnline())
		if _, err := ldb.ShardTable("t", aqp.ShardKey{Column: "id", Kind: aqp.ShardHash, Count: count}); err != nil {
			t.Fatal(err)
		}
		lsrv := httptest.NewServer(New(ldb, Config{Workers: 2}).Handler())
		rc := startRemoteCluster(t, rows, count, aqp.RemoteShardOptions{ProbeInterval: -1}, Config{Workers: 2}, samplingOnline())

		for _, req := range []QueryRequest{
			{SQL: "SELECT COUNT(*) AS c, SUM(x) AS s FROM t", Mode: "exact"},
			{SQL: "SELECT g, COUNT(*) AS c, AVG(x) AS a FROM t GROUP BY g ORDER BY g", Mode: "exact"},
			{SQL: "SELECT COUNT(*) AS c, SUM(x) AS s FROM t", Mode: "online", RelError: 0.05, Confidence: 0.95},
			{SQL: "SELECT g, SUM(x) AS s FROM t GROUP BY g ORDER BY g", Mode: "online", RelError: 0.1, Confidence: 0.95},
		} {
			_, lok, lbad := postQuery(t, lsrv.URL, req)
			_, rok, rbad := postQuery(t, rc.coord.URL, req)
			if lbad.Error != "" || rbad.Error != "" {
				t.Fatalf("n=%d %q: local err %q, remote err %q", count, req.SQL, lbad.Error, rbad.Error)
			}
			ln, rn := normalizeResp(lok), normalizeResp(rok)
			if !reflect.DeepEqual(ln, rn) {
				lj, _ := json.Marshal(ln)
				rj, _ := json.Marshal(rn)
				t.Errorf("n=%d %q (mode %s): remote response differs from local:\nlocal:  %s\nremote: %s",
					count, req.SQL, req.Mode, lj, rj)
			}
		}
		lsrv.Close()
	}
}

// TestRemoteClusterKillDegradedHonest: killing one shard server
// mid-cluster yields Degraded-flagged honest answers — exact runs refuse
// to extrapolate and drop to guarantee "none"; sampled runs over hash
// shards extrapolate the survivors and say so — with the failure
// attributed everywhere the operator looks: the response's shards block,
// GET /shards liveness, the remote-event metrics, and the flight
// recorder. Never a silently wrong answer.
func TestRemoteClusterKillDegradedHonest(t *testing.T) {
	rc := startRemoteCluster(t, 20_000, 4,
		aqp.RemoteShardOptions{
			ProbeInterval: 30 * time.Millisecond,
			HedgeDelay:    -1,
			Retry:         fault.RetryConfig{Tries: 2, Base: time.Millisecond},
		},
		Config{Workers: 2, Telemetry: true, FlightQueries: 16}, samplingOnline())

	// Healthy baseline.
	_, ok0, bad0 := postQuery(t, rc.coord.URL, QueryRequest{SQL: "SELECT COUNT(*) AS c FROM t", Mode: "exact"})
	if bad0.Error != "" {
		t.Fatalf("healthy query: %s", bad0.Error)
	}
	if ok0.Shards == nil || len(ok0.Shards.Degraded) != 0 {
		t.Fatalf("healthy cluster reported degraded shards: %+v", ok0.Shards)
	}
	healthy := ok0.Rows[0][0].(float64)
	if healthy != 20_000 {
		t.Fatalf("healthy exact COUNT(*) = %v", healthy)
	}

	// Kill shard 2's server.
	rc.shardSrvs[2].CloseClientConnections()
	rc.shardSrvs[2].Close()

	// Exact mode: the survivors' partial count is served, flagged
	// degraded, guarantee "none" — exact answers are never extrapolated.
	_, ex, exBad := postQuery(t, rc.coord.URL, QueryRequest{SQL: "SELECT COUNT(*) AS c FROM t", Mode: "exact"})
	if exBad.Error != "" {
		t.Fatalf("degraded exact query: %s", exBad.Error)
	}
	if ex.Shards == nil || len(ex.Shards.Degraded) != 1 || ex.Shards.Degraded[0] != 2 {
		t.Fatalf("killed shard not attributed in exact response: %+v", ex.Shards)
	}
	if !ex.Degraded || ex.Guarantee != "none" {
		t.Fatalf("degraded exact run: degraded=%v guarantee=%q, want true/none", ex.Degraded, ex.Guarantee)
	}
	if ex.Shards.Extrapolated {
		t.Fatal("degraded exact run must not extrapolate")
	}
	cov := ex.Shards.Coverage
	if cov <= 0 || cov >= 1 {
		t.Fatalf("degraded coverage = %v, want in (0,1)", cov)
	}
	exCount := ex.Rows[0][0].(float64)
	if exCount >= healthy || exCount != healthy*cov {
		t.Fatalf("degraded exact COUNT(*) = %v, want the covered count %v (coverage %.4f of %v)",
			exCount, healthy*cov, cov, healthy)
	}

	// Sampled mode over hash shards: the survivors are an unbiased window,
	// so the estimate is extrapolated back to the full population and
	// flagged as such.
	_, ol, olBad := postQuery(t, rc.coord.URL, QueryRequest{
		SQL: "SELECT COUNT(*) AS c FROM t", Mode: "online", RelError: 0.05, Confidence: 0.95})
	if olBad.Error != "" {
		t.Fatalf("degraded online query: %s", olBad.Error)
	}
	if ol.Shards == nil || len(ol.Shards.Degraded) != 1 || ol.Shards.Degraded[0] != 2 ||
		!ol.Shards.Extrapolated || ol.Shards.Coverage != cov {
		t.Fatalf("degraded online run not extrapolation-flagged over shard 2 at coverage %v: %+v", cov, ol.Shards)
	}
	for _, row := range ol.Items {
		for _, it := range row {
			// NaN fails both comparisons.
			if it.HasCI && (!(it.CILo <= it.CIHi) || !(it.Confidence > 0 && it.Confidence <= 1)) {
				t.Fatalf("degraded online CI invalid: [%g, %g] at confidence %g", it.CILo, it.CIHi, it.Confidence)
			}
		}
	}
	olCount := ol.Rows[0][0].(float64)
	if olCount < 0.8*healthy || olCount > 1.2*healthy {
		t.Fatalf("extrapolated COUNT(*) = %v, want near %v (coverage %.4f)", olCount, healthy, ol.Shards.Coverage)
	}
	if olCount <= healthy*ol.Shards.Coverage*1.05 {
		t.Fatalf("extrapolated COUNT(*) = %v looks like the unextrapolated surviving count", olCount)
	}

	// GET /shards: the dead shard is marked not alive, with its address.
	deadline := time.Now().Add(2 * time.Second)
	var groups []ShardGroupStatus
	for {
		hr, err := http.Get(rc.coord.URL + "/shards")
		if err != nil {
			t.Fatal(err)
		}
		groups = nil
		if err := json.NewDecoder(hr.Body).Decode(&groups); err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if len(groups) == 1 && !groups[0].Health[2].Alive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/shards never marked shard 2 down: %+v", groups)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i, h := range groups[0].Health {
		if h.Kind != "remote" || h.Addr != rc.shardSrvs[i].URL {
			t.Fatalf("health entry missing kind/addr: %+v", h)
		}
	}
	if groups[0].Health[0].ProbeLatencyMS <= 0 {
		t.Fatalf("live shard has no probe latency: %+v", groups[0].Health[0])
	}

	// Metrics: the shard failure and the probe transition are counted.
	// The failed scatter leg reads "fail" (RPC error) or "open" (its
	// breaker already tripped) depending on probe timing — both honest.
	snap := getMetrics(t, rc.coord.URL)
	var sawFail, sawProbeDown bool
	for k, v := range snap.Counters {
		if v <= 0 {
			continue
		}
		if strings.HasPrefix(k, "shard_exec_total{") && strings.Contains(k, `shard="2"`) &&
			(strings.Contains(k, `outcome="fail"`) || strings.Contains(k, `outcome="open"`)) {
			sawFail = true
		}
		if strings.HasPrefix(k, "shard_remote_total{") && strings.Contains(k, `event="probe_down"`) {
			sawProbeDown = true
		}
	}
	if !sawFail || !sawProbeDown {
		t.Fatalf("metrics missing attribution: fail=%v probe_down=%v in %v", sawFail, sawProbeDown, snap.Counters)
	}

	// Flight recorder: the failure is on the record — the shard-outcome
	// event for shard 2 and/or the probe transition.
	b := rc.srv.FlightBundle("test")
	var sawEvent bool
	for _, e := range b.Events {
		if e.Kind == "shard_remote" && e.Detail == "probe_down" {
			sawEvent = true
		}
		if e.Kind == "shard" && e.Shard == 2 && (e.Detail == "fail" || e.Detail == "open") {
			sawEvent = true
		}
	}
	if !sawEvent {
		t.Fatalf("flight recorder holds no shard-failure events (%d events)", len(b.Events))
	}
}

// TestShardServerVersionSkewRejected: the serving side refuses unknown
// wire versions loudly with a 400 naming both versions, and refuses
// requests for a table it does not serve.
func TestShardServerVersionSkewRejected(t *testing.T) {
	db := buildDB(t, 1_000)
	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	ss := NewShardServer(tbl, ShardServerConfig{ShardID: 0})
	ts := httptest.NewServer(ss.Handler())
	defer ts.Close()

	for _, path := range []string{"/shard/estimate", "/shard/rebuild"} {
		body, _ := json.Marshal(map[string]any{"v": 99, "table": "t", "sql": "SELECT COUNT(*) FROM t"})
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with v=99: HTTP %d, want 400", path, resp.StatusCode)
		}
		if !strings.Contains(string(raw), "version 99 unsupported") {
			t.Fatalf("%s version rejection does not name the versions: %s", path, raw)
		}
	}

	body, _ := json.Marshal(map[string]any{"v": 1, "table": "other", "sql": "SELECT COUNT(*) FROM other"})
	resp, err := http.Post(ts.URL+"/shard/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-table estimate: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestShardServerTraceparentEcho: the estimate handler adopts the
// caller's traceparent and echoes the trace ID, proving context
// propagation across the process boundary.
func TestShardServerTraceparentEcho(t *testing.T) {
	db := buildDB(t, 1_000)
	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	ss := NewShardServer(tbl, ShardServerConfig{ShardID: 3})
	ts := httptest.NewServer(ss.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{"v": 1, "table": "t", "sql": "SELECT COUNT(*) FROM t"})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/shard/estimate", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	req.Header.Set("traceparent", "00-"+tid+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er shard.EstimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || er.ShardID != 3 {
		t.Fatalf("estimate: HTTP %d shard %d", resp.StatusCode, er.ShardID)
	}
	if er.TraceID != tid {
		t.Fatalf("trace ID not echoed: got %q want %q", er.TraceID, tid)
	}
}

// TestShardServerRebuildParity: rebuilding via the wire with a derived
// seed produces exactly the sample a local shard would build, reported
// through /shard/health as fresh — the rebuild path's half of the
// local/remote parity guarantee.
func TestShardServerRebuildParity(t *testing.T) {
	db := buildDB(t, 8_000)
	g, err := db.ShardTable("t", aqp.ShardKey{Column: "id", Kind: aqp.ShardHash, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Local build for the reference sample-row counts.
	if err := g.BuildSamples(0.25, 42); err != nil {
		t.Fatal(err)
	}
	localRows := make([]int, 2)
	for i, s := range g.Shards() {
		localRows[i] = s.Health().SampleRows
	}

	// Serve the same partitions and rebuild over the wire with the same
	// derived seeds.
	db2 := buildDB(t, 8_000)
	g2, err := db2.ShardTable("t", aqp.ShardKey{Column: "id", Kind: aqp.ShardHash, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		ss := NewShardServer(g2.ShardTable(i), ShardServerConfig{ShardID: i, Table: "t"})
		ts := httptest.NewServer(ss.Handler())
		body, _ := json.Marshal(shard.RebuildRequest{V: shard.WireVersion, Table: "t", Rate: 0.25, Seed: shard.DeriveSeed(42, i)})
		resp, err := http.Post(ts.URL+"/shard/rebuild", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var rr shard.RebuildResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if rr.SampleRows != localRows[i] {
			t.Fatalf("shard %d wire rebuild kept %d rows, local kept %d (same rate+seed must match)",
				i, rr.SampleRows, localRows[i])
		}
		hr, err := http.Get(ts.URL + "/shard/health")
		if err != nil {
			t.Fatal(err)
		}
		var hw shard.HealthWire
		if err := json.NewDecoder(hr.Body).Decode(&hw); err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if hw.SampleRows != rr.SampleRows || !hw.SampleFresh {
			t.Fatalf("shard %d health after rebuild: %+v", i, hw)
		}
		ts.Close()
	}
}
