package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/sample"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/workload"
)

// testShardHandler serves one partition table over the wire schema using
// the exact same plan-and-run path the real shard server uses, so
// envelope tests in this package exercise true request/response bytes
// without importing internal/server (which imports this package).
type testShardHandler struct {
	id  int
	tbl *storage.Table
	// hooks let tests shape failure behavior per request.
	mu       sync.Mutex
	requests int
	before   func(n int, w http.ResponseWriter) bool // true = handled (short-circuit)
}

func (h *testShardHandler) estimates() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.requests
}

func (h *testShardHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/shard/health":
		json.NewEncoder(w).Encode(HealthWire{V: WireVersion, ShardID: h.id, Table: h.tbl.Name(), Rows: h.tbl.NumRows()})
	case "/shard/estimate":
		h.mu.Lock()
		h.requests++
		n := h.requests
		before := h.before
		h.mu.Unlock()
		if before != nil && before(n, w) {
			return
		}
		var req EstimateRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		stmt, err := sqlparse.Parse(req.SQL)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		p, err := BuildShardQueryPlan(Query{Stmt: stmt, Sample: req.Sample}, h.tbl)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		part, err := exec.RunAggPartialContext(r.Context(), p, 2)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		blob, err := exec.EncodeAggPartialWire(part)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writePartial(w, h.id, h.tbl.NumRows(), blob)
	default:
		http.NotFound(w, r)
	}
}

// writePartial writes an estimate reply as the shard server does: the
// partial's wire bytes as the body, identity and population in headers.
func writePartial(w http.ResponseWriter, id, rows int, blob []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderWireVersion, strconv.Itoa(WireVersion))
	w.Header().Set(HeaderShardID, strconv.Itoa(id))
	w.Header().Set(HeaderRows, strconv.Itoa(rows))
	w.Write(blob)
}

// remoteFixture partitions the events table locally, then serves every
// partition over httptest — the same bytes a real shard-server process
// would see — and attaches a remote group pointed at them.
func remoteFixture(t *testing.T, shards int, opt RemoteOptions) (ev *workload.Events, local *Group, remote *Group, handlers []*testShardHandler) {
	t.Helper()
	evw, lg := scatterFixture(t, Key{Column: "ev_user", Kind: KeyHash, Count: shards}, fault.BreakerConfig{})
	var addrs []string
	for i := 0; i < shards; i++ {
		h := &testShardHandler{id: i, tbl: lg.ShardTable(i)}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		handlers = append(handlers, h)
		addrs = append(addrs, srv.URL)
	}
	rg, err := AttachRemote(evw.Table, Key{Column: "ev_user", Kind: KeyHash, Count: shards}, addrs,
		opt, fault.BreakerConfig{})
	if err != nil {
		t.Fatalf("attach remote: %v", err)
	}
	t.Cleanup(rg.Close)
	return evw, lg, rg, handlers
}

// TestRemoteScatterBitIdenticalToLocal: a healthy remote group must
// produce bit-identical finalized results to the in-process group over
// the same partitions and seeds — exact and sampled — at N∈{2,4}. This
// is the losslessness guarantee of the wire seam.
func TestRemoteScatterBitIdenticalToLocal(t *testing.T) {
	for _, shards := range []int{2, 4} {
		for _, tc := range []struct {
			name string
			sql  string
			spec *sample.Spec
		}{
			{"exact", "SELECT ev_group, COUNT(*), SUM(ev_value) FROM events GROUP BY ev_group ORDER BY ev_group", nil},
			{"sampled", "SELECT COUNT(*), SUM(ev_value), AVG(ev_value) FROM events",
				&sample.Spec{Kind: sample.KindUniformRow, Rate: 0.3, Seed: 7}},
			{"percentile", "SELECT PERCENTILE(ev_value, 0.5) FROM events",
				&sample.Spec{Kind: sample.KindUniformRow, Rate: 0.5, Seed: 11}},
		} {
			t.Run(fmt.Sprintf("n%d/%s", shards, tc.name), func(t *testing.T) {
				fx, lg, rg, _ := remoteFixture(t, shards, RemoteOptions{ProbeInterval: -1})
				stmt := parse(t, tc.sql)
				opt := ExecOptions{Workers: 4, Sample: tc.spec}
				lres, err := lg.Scatter(context.Background(), stmt, opt)
				if err != nil {
					t.Fatalf("local scatter: %v", err)
				}
				rres, err := rg.Scatter(context.Background(), stmt, opt)
				if err != nil {
					t.Fatalf("remote scatter: %v", err)
				}
				if rres.Degraded() {
					t.Fatalf("healthy remote scatter degraded: %+v", rres.Failed)
				}
				if lres.TotalRows != rres.TotalRows || lres.CoveredRows != rres.CoveredRows {
					t.Fatalf("coverage differs: local %d/%d vs remote %d/%d",
						lres.CoveredRows, lres.TotalRows, rres.CoveredRows, rres.TotalRows)
				}
				lfin := finalize(t, fx, tc.sql, lres)
				rfin := finalize(t, fx, tc.sql, rres)
				assertBitIdentical(t, tc.sql, lfin, rfin)
			})
		}
	}
}

// assertBitIdentical requires exact value equality — no tolerance. Floats
// must match to the bit, which is what the wire codec promises.
func assertBitIdentical(t *testing.T, sql string, want, got *exec.Result) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%q: %d rows vs %d", sql, got.NumRows(), want.NumRows())
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if want.Value(i, j) != got.Value(i, j) {
				t.Errorf("%q row %d col %d: remote %v != local %v (must be bit-identical)",
					sql, i, j, got.Value(i, j), want.Value(i, j))
			}
		}
	}
}

// TestRemoteRetriesTransient: 5xx responses are retried with the seeded
// backoff; the call succeeds on a later attempt, and the retries are
// counted and surfaced as events.
func TestRemoteRetriesTransient(t *testing.T) {
	fx, _, rg, handlers := remoteFixture(t, 2, RemoteOptions{
		ProbeInterval: -1, HedgeDelay: -1,
		Retry: fault.RetryConfig{Tries: 3, Base: time.Millisecond},
	})
	handlers[1].before = func(n int, w http.ResponseWriter) bool {
		if n <= 2 {
			http.Error(w, "transient overload", http.StatusServiceUnavailable)
			return true
		}
		return false
	}
	var events []Event
	var mu sync.Mutex
	rg.SetObserver(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	sql := "SELECT COUNT(*) FROM events"
	res, err := rg.Scatter(context.Background(), parse(t, sql), ExecOptions{Workers: 2})
	if err != nil {
		t.Fatalf("scatter: %v", err)
	}
	if res.Degraded() {
		t.Fatalf("retryable failure degraded the scatter: %v", res.Failed)
	}
	h := rg.Shards()[1].Health()
	if h.Retries != 2 {
		t.Fatalf("shard 1 retries = %d, want 2", h.Retries)
	}
	mu.Lock()
	defer mu.Unlock()
	var retryEvents int
	for _, e := range events {
		if e.Type == "retry" && e.Shard == 1 {
			retryEvents++
		}
	}
	if retryEvents != 2 {
		t.Fatalf("observed %d retry events for shard 1, want 2", retryEvents)
	}
	_ = fx
}

// TestRemotePermanent4xxNotRetried: a 400 rejection is permanent — one
// request, no retries, the shard degrades immediately.
func TestRemotePermanent4xxNotRetried(t *testing.T) {
	_, _, rg, handlers := remoteFixture(t, 2, RemoteOptions{
		ProbeInterval: -1, HedgeDelay: -1,
		Retry: fault.RetryConfig{Tries: 4, Base: time.Millisecond},
	})
	handlers[0].before = func(n int, w http.ResponseWriter) bool {
		http.Error(w, "schema skew", http.StatusBadRequest)
		return true
	}
	res, err := rg.Scatter(context.Background(), parse(t, "SELECT COUNT(*) FROM events"),
		ExecOptions{Workers: 2, AllowDegraded: true})
	if err != nil {
		t.Fatalf("scatter: %v", err)
	}
	if !res.Degraded() || len(res.Failed) != 1 || res.Failed[0] != 0 {
		t.Fatalf("want shard 0 degraded, got failed=%v", res.Failed)
	}
	if got := handlers[0].estimates(); got != 1 {
		t.Fatalf("permanent 4xx hit the server %d times, want exactly 1", got)
	}
	if !errors.Is(res.Outcomes[0].Err, fault.ErrNoRetry) {
		t.Fatalf("outcome error %v does not mark the failure permanent", res.Outcomes[0].Err)
	}
	if h := rg.Shards()[0].Health(); h.Retries != 0 {
		t.Fatalf("permanent failure counted %d retries, want 0", h.Retries)
	}
}

// TestRemoteHedgeWins: when the first request straggles past the fixed
// hedge delay, a hedge fires and its response wins; the loser is
// cancelled and the counters and events say so.
func TestRemoteHedgeWins(t *testing.T) {
	_, _, rg, handlers := remoteFixture(t, 2, RemoteOptions{
		ProbeInterval: -1, HedgeDelay: 20 * time.Millisecond,
	})
	var n0 atomic.Int64
	handlers[0].before = func(n int, w http.ResponseWriter) bool {
		// Only the first concurrent request straggles; the hedge is fast.
		if n0.Add(1) == 1 {
			time.Sleep(400 * time.Millisecond)
		}
		return false
	}
	var events []Event
	var mu sync.Mutex
	rg.SetObserver(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	res, err := rg.Scatter(context.Background(), parse(t, "SELECT COUNT(*) FROM events"),
		ExecOptions{Workers: 2})
	if err != nil || res.Degraded() {
		t.Fatalf("scatter: err=%v degraded=%v", err, res != nil && res.Degraded())
	}
	h := rg.Shards()[0].Health()
	if h.Hedges < 1 {
		t.Fatalf("no hedge fired for the straggling shard: %+v", h)
	}
	if h.HedgeWins < 1 {
		t.Fatalf("hedge fired but did not win against a 400ms straggler: %+v", h)
	}
	mu.Lock()
	defer mu.Unlock()
	var sawHedge, sawWin bool
	for _, e := range events {
		if e.Shard == 0 && e.Type == "hedge" {
			sawHedge = true
		}
		if e.Shard == 0 && e.Type == "hedge_win" {
			sawWin = true
		}
	}
	if !sawHedge || !sawWin {
		t.Fatalf("hedge events missing: hedge=%v win=%v", sawHedge, sawWin)
	}
}

// TestRemoteHedgeBudget: the hedge rate is capped — a server that is
// always slow cannot double its own load through hedging.
func TestRemoteHedgeBudget(t *testing.T) {
	rs := newRemoteShard(0, "events", "http://127.0.0.1:9", RemoteOptions{
		HedgeDelay: time.Millisecond, HedgeMaxFraction: 0.1,
	})
	// Simulate 100 calls with the hedger consulted each time.
	var hedges int
	for i := 0; i < 100; i++ {
		rs.calls.Add(1)
		if _, ok := rs.hedgeDelay(); ok {
			rs.hedges.Add(1)
			hedges++
		}
	}
	if hedges > 11 {
		t.Fatalf("hedge budget admitted %d hedges over 100 calls (cap 0.1)", hedges)
	}
	if hedges == 0 {
		t.Fatal("hedge budget admitted no hedges at all")
	}
}

// TestRemoteCallDeadline: the per-call deadline is the query deadline
// minus gather slack — a server that never answers inside it fails the
// call quickly instead of hanging the scatter.
func TestRemoteCallDeadline(t *testing.T) {
	_, _, rg, handlers := remoteFixture(t, 2, RemoteOptions{
		ProbeInterval: -1, HedgeDelay: -1, GatherSlack: 20 * time.Millisecond,
		Retry: fault.RetryConfig{Tries: 1},
	})
	handlers[0].before = func(n int, w http.ResponseWriter) bool {
		time.Sleep(2 * time.Second)
		http.Error(w, "too late", http.StatusInternalServerError)
		return true
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := rg.Scatter(ctx, parse(t, "SELECT COUNT(*) FROM events"),
		ExecOptions{Workers: 2, AllowDegraded: true})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("scatter: %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline-bound scatter took %v; the call deadline did not bind", elapsed)
	}
	if !res.Degraded() || len(res.Failed) != 1 || res.Failed[0] != 0 {
		t.Fatalf("want shard 0 degraded on deadline, got failed=%v", res.Failed)
	}
}

// TestRemoteVersionSkewRejected: a response speaking a different wire
// version is refused loudly with an error naming both versions, never
// guessed at — a v1 server's JSON envelope, a v2 header over a JSON v1
// partial, and an unknown version header alike.
func TestRemoteVersionSkewRejected(t *testing.T) {
	const v1Body = `{"v":1,"shard_id":0,"rows":10,"partial":{"v":1,"counters":{},"groups":[]}}`
	for _, tc := range []struct {
		name, version, body string
		want                []string
	}{
		{"v1 server", "", v1Body, []string{"v1", "v2"}},
		{"v1 partial", "2", `{"v":1,"counters":{},"groups":[]}`, []string{"wire v1", "v2"}},
		{"v99 server", "99", "", []string{"version 99", "v2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/shard/health":
					json.NewEncoder(w).Encode(HealthWire{V: WireVersion, Rows: 10})
				case "/shard/estimate":
					if tc.version != "" {
						w.Header().Set(HeaderWireVersion, tc.version)
						w.Header().Set(HeaderRows, "10")
					}
					io.WriteString(w, tc.body)
				}
			}))
			defer srv.Close()
			rs := newRemoteShard(0, "events", srv.URL, RemoteOptions{HedgeDelay: -1, Retry: fault.RetryConfig{Tries: 1}})
			_, err := rs.Estimate(context.Background(), Query{Stmt: parse(t, "SELECT COUNT(*) FROM events")}, 1)
			if err == nil {
				t.Fatal("version-skewed response accepted")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("skew error %q does not name %q", err, w)
				}
			}
		})
	}
}

// TestRemoteOversizedBodyRefused: a reply larger than the read cap — with
// a Content-Length or streamed without one — is refused by name as a
// permanent failure, never decoded as a truncated prefix; a reply at the
// cap is read whole.
func TestRemoteOversizedBodyRefused(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		if r.URL.Query().Has("declare") {
			w.Header().Set("Content-Length", strconv.Itoa(n))
		}
		w.(http.Flusher).Flush() // without a declared length: chunked
		w.Write(make([]byte, n))
	}))
	defer srv.Close()
	for _, tc := range []struct {
		query string
		ok    bool
	}{
		{"n=16", true}, {"n=16&declare", true}, {"n=17", false}, {"n=17&declare", false},
	} {
		resp, err := http.Get(srv.URL + "/?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		data, err := readReply(resp, 16)
		resp.Body.Close()
		switch {
		case tc.ok && (err != nil || len(data) != 16):
			t.Errorf("%s: read %d bytes, err %v; want all 16", tc.query, len(data), err)
		case !tc.ok && (!errors.Is(err, fault.ErrNoRetry) || !strings.Contains(fmt.Sprint(err), "exceeds 16 bytes")):
			t.Errorf("%s: error %v is not a permanent, named refusal", tc.query, err)
		}
	}
}

// TestRemoteFaultPoints: the chaos fault points on the wire seams fire
// and surface as injected errors through the envelope.
func TestRemoteFaultPoints(t *testing.T) {
	for _, point := range []string{"remote.dial", "remote.send", "remote.recv", "remote.decode"} {
		t.Run(point, func(t *testing.T) {
			_, _, rg, _ := remoteFixture(t, 2, RemoteOptions{
				ProbeInterval: -1, HedgeDelay: -1,
				Retry: fault.RetryConfig{Tries: 1},
			})
			rules, err := fault.ParseRules(point + ":error:1")
			if err != nil {
				t.Fatal(err)
			}
			fault.Install(fault.Schedule{Seed: 1, Rules: rules})
			defer fault.Uninstall()
			// Probability 1 kills every shard: with no survivor there is no
			// partial, and the scatter refuses loudly — naming the injected
			// point — rather than inventing an answer.
			_, err = rg.Scatter(context.Background(), parse(t, "SELECT COUNT(*) FROM events"),
				ExecOptions{Workers: 2, AllowDegraded: true})
			if err == nil {
				t.Fatalf("point %s armed at prob 1 still produced a result", point)
			}
			if !strings.Contains(err.Error(), point) {
				t.Fatalf("total-failure error %v does not name the injected point %s", err, point)
			}
		})
	}
}

// TestRemoteDeadServerDegradesHonestly: killing a shard server mid-group
// degrades that stratum only; the result is flagged, the failed shard is
// attributed, and coverage excludes its rows.
func TestRemoteDeadServerDegradesHonestly(t *testing.T) {
	evw, lg := scatterFixture(t, Key{Column: "ev_user", Kind: KeyHash, Count: 2}, fault.BreakerConfig{})
	var addrs []string
	var servers []*httptest.Server
	for i := 0; i < 2; i++ {
		h := &testShardHandler{id: i, tbl: lg.ShardTable(i)}
		srv := httptest.NewServer(h)
		servers = append(servers, srv)
		addrs = append(addrs, srv.URL)
	}
	defer servers[1].Close()
	rg, err := AttachRemote(evw.Table, Key{Column: "ev_user", Kind: KeyHash, Count: 2}, addrs,
		RemoteOptions{ProbeInterval: -1, HedgeDelay: -1, Retry: fault.RetryConfig{Tries: 2, Base: time.Millisecond}},
		fault.BreakerConfig{})
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	defer rg.Close()

	servers[0].Close() // the shard dies after attach

	res, err := rg.Scatter(context.Background(), parse(t, "SELECT COUNT(*) FROM events"),
		ExecOptions{Workers: 2, AllowDegraded: true})
	if err != nil {
		t.Fatalf("scatter: %v", err)
	}
	if !res.Degraded() || len(res.Failed) != 1 || res.Failed[0] != 0 {
		t.Fatalf("want shard 0 degraded after server kill, got failed=%v", res.Failed)
	}
	wantCovered := rg.Shards()[1].Rows()
	if res.CoveredRows != wantCovered {
		t.Fatalf("covered rows %d, want surviving shard's %d", res.CoveredRows, wantCovered)
	}
	if res.Partial == nil {
		t.Fatal("surviving shard produced no partial")
	}
}

// TestAttachRemoteUnreachableFailsLoudly: an address with no listener
// fails the attach — not the first query.
func TestAttachRemoteUnreachableFailsLoudly(t *testing.T) {
	ev, lg := scatterFixture(t, Key{Column: "ev_user", Kind: KeyHash, Count: 2}, fault.BreakerConfig{})
	h := &testShardHandler{id: 0, tbl: lg.ShardTable(0)}
	srv := httptest.NewServer(h)
	defer srv.Close()
	_, err := AttachRemote(ev.Table, Key{Column: "ev_user", Kind: KeyHash, Count: 2},
		[]string{srv.URL, "http://127.0.0.1:1"}, RemoteOptions{ProbeInterval: -1}, fault.BreakerConfig{})
	if err == nil {
		t.Fatal("attach with an unreachable shard succeeded")
	}
	if !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("attach error %v does not say which shard is unreachable", err)
	}
}

// TestRemoteProbeTransitions: the health prober reports probe_down when a
// server dies and probe_up when it returns, and GET-facing Health carries
// the probe latency and liveness.
func TestRemoteProbeTransitions(t *testing.T) {
	ev, lg := scatterFixture(t, Key{Column: "ev_user", Kind: KeyHash, Count: 1}, fault.BreakerConfig{})
	h := &testShardHandler{id: 0, tbl: lg.ShardTable(0)}
	srv := httptest.NewServer(h)
	defer srv.Close()
	rg, err := AttachRemote(ev.Table, Key{Column: "ev_user", Kind: KeyHash, Count: 1}, []string{srv.URL},
		RemoteOptions{ProbeInterval: -1}, fault.BreakerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rg.Close()
	var events []Event
	var mu sync.Mutex
	rg.SetObserver(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	rs := rg.Shards()[0].(*RemoteShard)
	hs := rs.Health()
	if !hs.Alive || hs.Kind != "remote" || hs.Addr == "" || hs.ProbeLatencyMS <= 0 {
		t.Fatalf("post-attach health incomplete: %+v", hs)
	}

	srv.CloseClientConnections()
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	if err := rs.probeOnce(ctx); err == nil {
		t.Fatal("probe of a dead server succeeded")
	}
	cancel()
	if rs.Health().Alive {
		t.Fatal("shard still alive after failed probe")
	}
	mu.Lock()
	var downs int
	for _, e := range events {
		if e.Type == "probe_down" {
			downs++
		}
	}
	mu.Unlock()
	if downs != 1 {
		t.Fatalf("probe_down fired %d times, want exactly once (edge-triggered)", downs)
	}
}

// TestRemoteNegativeRowsRefused: a shard's population feeds coverage, the
// survivors' extrapolation ratio and Neyman rates, so an estimate reply
// whose X-Shard-Rows is negative is a malformed reply: the leg fails
// permanently, the shard degrades, and no later scatter counts the lie.
func TestRemoteNegativeRowsRefused(t *testing.T) {
	evw, lg := scatterFixture(t, Key{Column: "ev_user", Kind: KeyHash, Count: 2}, fault.BreakerConfig{})
	var addrs []string
	for i := 0; i < 2; i++ {
		h := &testShardHandler{id: i, tbl: lg.ShardTable(i)}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			maps.Copy(w.Header(), rec.Header())
			if i == 0 && r.URL.Path == "/shard/estimate" {
				w.Header().Set(HeaderRows, "-5")
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		}))
		t.Cleanup(srv.Close)
		addrs = append(addrs, srv.URL)
	}
	rg, err := AttachRemote(evw.Table, Key{Column: "ev_user", Kind: KeyHash, Count: 2}, addrs,
		RemoteOptions{ProbeInterval: -1, HedgeDelay: -1, Retry: fault.RetryConfig{Tries: 3, Base: time.Millisecond}},
		fault.BreakerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rg.Close()
	for pass := 0; pass < 2; pass++ {
		res, err := rg.Scatter(context.Background(), parse(t, "SELECT COUNT(*) FROM events"),
			ExecOptions{Workers: 2, AllowDegraded: true})
		if err != nil {
			t.Fatalf("scatter: %v", err)
		}
		if len(res.Failed) != 1 || res.Failed[0] != 0 {
			t.Fatalf("pass %d: failed shards %v, want [0]", pass, res.Failed)
		}
		if err := res.Outcomes[0].Err; !errors.Is(err, fault.ErrNoRetry) || !strings.Contains(err.Error(), "negative") {
			t.Fatalf("pass %d: shard 0 error %v is not a permanent refusal naming the negative count", pass, err)
		}
		if want := lg.ShardTable(0).NumRows() + lg.ShardTable(1).NumRows(); res.TotalRows != want ||
			res.CoveredRows != lg.ShardTable(1).NumRows() {
			t.Fatalf("pass %d: total %d covered %d, want %d and shard 1's %d",
				pass, res.TotalRows, res.CoveredRows, want, lg.ShardTable(1).NumRows())
		}
	}
}

// TestRemoteHealthNegativeRowsDown: a health reply with a negative row count
// is malformed: attach refuses it, and a live shard whose probe turns
// malformed is marked down and keeps its last good population.
func TestRemoteHealthNegativeRowsDown(t *testing.T) {
	var lie atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rows := 10
		if lie.Load() {
			rows = -5
		}
		json.NewEncoder(w).Encode(HealthWire{V: WireVersion, Rows: rows})
	}))
	defer srv.Close()
	rs := newRemoteShard(0, "events", srv.URL, RemoteOptions{ProbeInterval: -1})
	if err := rs.probeOnce(context.Background()); err != nil || !rs.Health().Alive || rs.Rows() != 10 {
		t.Fatalf("honest probe: err %v, health %+v", err, rs.Health())
	}
	lie.Store(true)
	err := rs.probeOnce(context.Background())
	if !errors.Is(err, fault.ErrNoRetry) || !strings.Contains(fmt.Sprint(err), "negative") {
		t.Fatalf("probe error %v is not a permanent refusal naming the negative count", err)
	}
	if h := rs.Health(); h.Alive || h.Rows != 10 {
		t.Fatalf("after a malformed probe: alive %v rows %d, want down with the last good 10", h.Alive, h.Rows)
	}
	ev, _ := scatterFixture(t, Key{Column: "ev_user", Kind: KeyHash, Count: 1}, fault.BreakerConfig{})
	_, err = AttachRemote(ev.Table, Key{Column: "ev_user", Kind: KeyHash, Count: 1}, []string{srv.URL},
		RemoteOptions{ProbeInterval: -1}, fault.BreakerConfig{})
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("attach to a shard reporting negative rows: %v", err)
	}
}

// FuzzHealthReply: no /shard/health body may panic the decoder, and any
// body it accepts carries this build's WireVersion and a population of at
// least zero rows.
func FuzzHealthReply(f *testing.F) {
	for _, seed := range []string{
		`{"v":2,"shard_id":0,"table":"events","rows":1000}`,
		`{"v":2,"rows":-1}`,
		`{"v":1,"rows":10}`,
		`{"v":2,"rows":9223372036854775807}`,
		`{"v":2,"rows":1e3}`,
		`{"v":"2"}`,
		`null`, `[]`, ``, `{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		hw, err := decodeHealth(body)
		if err == nil && (hw.V != WireVersion || hw.Rows < 0) {
			t.Fatalf("accepted %q as %+v", body, hw)
		}
	})
}
