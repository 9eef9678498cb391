package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	aqp "repro"
	"repro/internal/exec"
	"repro/internal/sample"
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
		aqp.RemoteShardOptions{ProbeInterval: 30 * time.Millisecond},
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

// TestShardServerVersionSkewRejected: the estimate endpoint refuses
// unknown wire versions — v1 clients included — loudly with a 400 naming
// both versions, and refuses requests for a table it does not serve.
func TestShardServerVersionSkewRejected(t *testing.T) {
	db := buildDB(t, 1_000)
	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	ss := NewShardServer(tbl, ShardServerConfig{ShardID: 0})
	ts := httptest.NewServer(ss.Handler())
	defer ts.Close()

	for _, v := range []int{1, 99} {
		body, _ := json.Marshal(map[string]any{"v": v, "table": "t", "sql": "SELECT COUNT(*) FROM t"})
		resp, err := http.Post(ts.URL+"/shard/estimate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("estimate with v=%d: HTTP %d, want 400", v, resp.StatusCode)
		}
		if want := fmt.Sprintf("version %d unsupported (this build speaks v%d)", v, shard.WireVersion); !strings.Contains(string(raw), want) {
			t.Fatalf("v=%d rejection does not name the versions: %s", v, raw)
		}
	}

	body, _ := json.Marshal(map[string]any{"v": shard.WireVersion, "table": "other", "sql": "SELECT COUNT(*) FROM other"})
	resp, err := http.Post(ts.URL+"/shard/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-table estimate: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestShardServerRefusesSpecItWouldNotRun: a sampler spec on the wire that
// would run as another sampler — a distinct keep of 0, run as keep 1 while
// EXPLAIN printed keep=0, or a unit weight on a uniform scan — is refused
// with a 400 rather than answered.
func TestShardServerRefusesSpecItWouldNotRun(t *testing.T) {
	db := buildDB(t, 1_000)
	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewShardServer(tbl, ShardServerConfig{ShardID: 0}).Handler())
	defer ts.Close()
	for _, spec := range []sample.Spec{
		{Kind: sample.KindDistinct, Rate: 0.5, KeyColumns: []string{"g"}, KeepThreshold: 0, Seed: 1},
		{Kind: sample.KindUniformRow, Rate: 0.5, Seed: 1, NoWeight: true},
	} {
		body, _ := json.Marshal(shard.EstimateRequest{V: shard.WireVersion, Table: "t",
			SQL: "SELECT g, SUM(x) FROM t GROUP BY g", Sample: &spec})
		resp, err := http.Post(ts.URL+"/shard/estimate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("estimate with %v: HTTP %d, want 400", spec, resp.StatusCode)
		}
	}
}

// TestShardServerOversizedRequestRefused: a request body over the 1 MiB
// cap is refused by name with a 413, which the client treats as
// permanent, instead of being parsed as a truncated prefix.
func TestShardServerOversizedRequestRefused(t *testing.T) {
	db := buildDB(t, 1_000)
	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewShardServer(tbl, ShardServerConfig{}).Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/shard/estimate", "application/json", bytes.NewReader(make([]byte, maxRequestBytes+1)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(raw), "request body exceeds 1048576 bytes") {
		t.Fatalf("oversized request: HTTP %d %s, want a named 413", resp.StatusCode, raw)
	}
}

// TestShardServerTraceparentEcho: the estimate handler adopts the
// caller's traceparent and echoes the trace ID in a reply header, proving
// context propagation across the process boundary; the body is exactly a
// decodable partial.
func TestShardServerTraceparentEcho(t *testing.T) {
	db := buildDB(t, 1_000)
	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	ss := NewShardServer(tbl, ShardServerConfig{ShardID: 3})
	ts := httptest.NewServer(ss.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{"v": shard.WireVersion, "table": "t", "sql": "SELECT COUNT(*) FROM t"})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/shard/estimate", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	req.Header.Set("traceparent", "00-"+tid+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get(shard.HeaderShardID) != "3" ||
		resp.Header.Get(shard.HeaderRows) != "1000" || resp.Header.Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("estimate: HTTP %d headers %v", resp.StatusCode, resp.Header)
	}
	if got := resp.Header.Get(shard.HeaderTraceID); got != tid {
		t.Fatalf("trace ID not echoed: got %q want %q", got, tid)
	}
	if _, err := exec.DecodeAggPartialWire(raw); err != nil {
		t.Fatalf("estimate body is not a partial: %v", err)
	}
}
