package server

// Chaos suite: replay seeded fault schedules against a live server and
// assert the containment invariants — the process survives every
// injected panic, failures surface as typed errors or degraded:true
// estimates with well-formed CIs, and answers are bit-identical to
// baseline once injection is off. The fault registry is process-global,
// so these tests never run in parallel and always disarm on cleanup.

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// chaosServer builds a deterministic server whose degradation ladder is
// fully provisioned: offline samples and synopses exist for table t.
func chaosServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	db := buildDB(t, 20000)
	if err := db.BuildOfflineSamples("t", [][]string{{"g"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildSynopsis("t", "x"); err != nil {
		t.Fatal(err)
	}
	return New(db, cfg)
}

// chaosQueries is the full cross of the five modes with three query
// shapes: 15 requests per replay round.
var chaosQueries = func() []QueryRequest {
	var out []QueryRequest
	for _, mode := range []string{"auto", "exact", "online", "offline", "ola"} {
		for _, sql := range []string{
			"SELECT SUM(x) FROM t WHERE x < 50",
			"SELECT g, AVG(x), COUNT(*) FROM t GROUP BY g ORDER BY g",
			"SELECT COUNT(*) FROM t WHERE x >= 0",
		} {
			out = append(out, QueryRequest{SQL: sql, Mode: mode, RelError: 0.5, Confidence: 0.95})
		}
	}
	return out
}()

// chaosPerQueryBound caps one request under injection: a fault may cost a
// retry, a ladder rung or a typed error, never a hang.
const chaosPerQueryBound = 30 * time.Second

// checkChaosResponse asserts the per-response invariants that must hold
// under injection: bounded latency, an allowed status, degradation flagged
// whenever a substitute technique answered, and well-formed intervals.
func checkChaosResponse(t *testing.T, req QueryRequest, status int, ok QueryResponse, took time.Duration) {
	t.Helper()
	if took > chaosPerQueryBound {
		t.Fatalf("%s %q: took %s, bound %s", req.Mode, req.SQL, took, chaosPerQueryBound)
	}
	switch status {
	case http.StatusOK, http.StatusBadRequest, http.StatusRequestTimeout,
		http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
	default:
		t.Fatalf("%s %q: unexpected status %d", req.Mode, req.SQL, status)
	}
	if status != http.StatusOK {
		return
	}
	if ok.DegradedFrom != "" && !ok.Degraded {
		t.Fatalf("%s %q: degraded_from=%q but degraded flag unset", req.Mode, req.SQL, ok.DegradedFrom)
	}
	// A forced mode that answers with a technique outside its own
	// repertoire (its technique or the engine's exact fallback) must be
	// flagged as degraded.
	native := map[string][]string{
		"exact":   {"exact"},
		"online":  {"online-sampling", "exact"},
		"offline": {"offline-samples", "exact"},
		"ola":     {"online-aggregation", "exact"},
	}
	if want, forced := native[req.Mode]; forced && !ok.Degraded {
		found := false
		for _, tech := range want {
			if ok.Technique == tech {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s %q: technique %s substituted without degraded flag", req.Mode, req.SQL, ok.Technique)
		}
	}
	for _, row := range ok.Items {
		for _, it := range row {
			if !it.HasCI {
				continue
			}
			// NaN fails both comparisons.
			if !(it.CILo <= it.CIHi) {
				t.Fatalf("%s %q: inverted CI [%g, %g]", req.Mode, req.SQL, it.CILo, it.CIHi)
			}
			if !(it.Confidence > 0 && it.Confidence <= 1) {
				t.Fatalf("%s %q: bad confidence %g", req.Mode, req.SQL, it.Confidence)
			}
		}
	}
}

// TestChaosWildcardPanicSurvival arms a panic rule on every registered
// injection point and replays the query mix many times: the server must
// answer every request with a typed error or a properly flagged
// degraded estimate, and never die.
func TestChaosWildcardPanicSurvival(t *testing.T) {
	t.Cleanup(fault.Uninstall)
	srv := chaosServer(t, Config{DegradeBudget: 2 * time.Second, BreakerThreshold: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fault.Install(fault.Schedule{Seed: 7, Rules: []fault.Rule{
		{Point: "*", Kind: fault.KindPanic, P: 0.3},
	}})
	for round := 0; round < 8; round++ {
		for _, req := range chaosQueries {
			start := time.Now()
			resp, ok, _ := postQuery(t, ts.URL, req)
			resp.Body.Close()
			checkChaosResponse(t, req, resp.StatusCode, ok, time.Since(start))
		}
	}
	var fires int64
	for _, st := range fault.Status() {
		fires += st.Fires
	}
	if fires == 0 {
		t.Fatal("no faults fired: injection points not reached")
	}
	// The server containment scope must have converted panics into typed
	// errors rather than letting them unwind the process (reaching this
	// line at all proves survival; the counter proves the path was hot).
	snap := getMetrics(t, ts.URL)
	var panics int64
	for k, v := range snap.Counters {
		if len(k) >= len("query_panics_total") && k[:len("query_panics_total")] == "query_panics_total" {
			panics += v
		}
	}
	if panics == 0 {
		t.Error("query_panics_total is zero after a panic-only chaos schedule")
	}
}

// TestChaosMixedFaultSchedule replays errors and latency (not just
// panics) with a different seed, covering the KindError and KindLatency
// paths end to end.
func TestChaosMixedFaultSchedule(t *testing.T) {
	t.Cleanup(fault.Uninstall)
	srv := chaosServer(t, Config{DegradeBudget: 2 * time.Second, BreakerThreshold: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fault.Install(fault.Schedule{Seed: 99, Rules: []fault.Rule{
		{Point: "core.online", Kind: fault.KindError, P: 0.5},
		{Point: "core.exact", Kind: fault.KindPanic, P: 0.5},
		{Point: "exec.morsel", Kind: fault.KindLatency, P: 0.05, Latency: time.Millisecond},
	}})
	for round := 0; round < 6; round++ {
		for _, req := range chaosQueries {
			start := time.Now()
			resp, ok, _ := postQuery(t, ts.URL, req)
			resp.Body.Close()
			checkChaosResponse(t, req, resp.StatusCode, ok, time.Since(start))
		}
	}
}

// TestChaosBaselineBitIdentical asserts the zero-cost-when-off
// contract: responses recorded before a chaos phase are bit-identical
// to responses from a fresh server after the schedule is uninstalled —
// injection leaves no residue in results.
func TestChaosBaselineBitIdentical(t *testing.T) {
	t.Cleanup(fault.Uninstall)
	run := func() []QueryResponse {
		srv := chaosServer(t, Config{DegradeBudget: 2 * time.Second})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		var out []QueryResponse
		for _, req := range chaosQueries {
			resp, ok, bad := postQuery(t, ts.URL, req)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("baseline %s %q: status %d: %s", req.Mode, req.SQL, resp.StatusCode, bad.Error)
			}
			if ok.Degraded {
				t.Fatalf("baseline %s %q: degraded with injection off", req.Mode, req.SQL)
			}
			ok.LatencyMS = 0
			ok.Messages = nil
			out = append(out, ok)
		}
		return out
	}

	before := run()

	fault.Install(fault.Schedule{Seed: 3, Rules: []fault.Rule{
		{Point: "*", Kind: fault.KindPanic, P: 0.4},
	}})
	srv := chaosServer(t, Config{DegradeBudget: time.Second, BreakerThreshold: 8})
	ts := httptest.NewServer(srv.Handler())
	for _, req := range chaosQueries {
		start := time.Now()
		resp, ok, _ := postQuery(t, ts.URL, req)
		resp.Body.Close()
		checkChaosResponse(t, req, resp.StatusCode, ok, time.Since(start))
	}
	ts.Close()
	fault.Uninstall()

	after := run()
	if !reflect.DeepEqual(before, after) {
		t.Fatal("baseline drift: injection-off responses differ before and after a chaos phase")
	}
}

// TestDegradeLadderOnPanic forces the exact engine to panic on every
// call: the ladder must substitute a cheaper technique and return 200
// with degraded:true, degraded_from=exact, and a CI from the
// substitute, while the panic and degradation counters advance.
func TestDegradeLadderOnPanic(t *testing.T) {
	t.Cleanup(fault.Uninstall)
	srv := chaosServer(t, Config{DegradeBudget: 2 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fault.Install(fault.Schedule{Seed: 1, Rules: []fault.Rule{
		{Point: "core.exact", Kind: fault.KindPanic, P: 1},
	}})
	// The rung runs under the query's context values: its worker count and
	// its span, so the substitute engine reports one worker and traces
	// into the query's tree.
	req := QueryRequest{SQL: "SELECT SUM(x) FROM t WHERE x < 50", Mode: "exact", RelError: 0.5, Confidence: 0.95,
		Workers: 1, Trace: true}
	resp, ok, bad := postQuery(t, ts.URL, req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s), want 200 via degradation ladder", resp.StatusCode, bad.Error)
	}
	if ok.Workers != 1 {
		t.Errorf("degraded answer ran at %d workers, want the request's 1", ok.Workers)
	}
	if !ok.Degraded || ok.DegradedFrom != "exact" {
		t.Fatalf("degraded=%v degraded_from=%q, want degraded from exact", ok.Degraded, ok.DegradedFrom)
	}
	if ok.Technique == string(core.TechniqueExact) {
		t.Fatalf("technique = %s, want a substitute", ok.Technique)
	}
	hasCI := false
	for _, row := range ok.Items {
		for _, it := range row {
			if it.HasCI && it.CILo <= it.CIHi && it.Confidence > 0 {
				hasCI = true
			}
		}
	}
	if !hasCI {
		t.Error("degraded answer carries no confidence interval")
	}
	snap := getMetrics(t, ts.URL)
	if snap.Counters[Key("query_panics_total", "engine", "exact")] == 0 {
		t.Error("query_panics_total{engine=exact} not incremented")
	}
	rung := ""
	for _, r := range degradeLadder {
		if snap.Counters[Key("queries_degraded_total", "to", string(r))] > 0 {
			rung = string(r)
		}
	}
	if rung == "" {
		t.Fatal("queries_degraded_total not incremented for any rung")
	}
	if ok.Trace == nil || ok.Trace.Find("engine "+rung) == nil {
		t.Errorf("trace holds no span of the %s rung:\n%s", rung, ok.Trace)
	}
}

// TestDegradeDisabledPerRequest asserts no_degrade:true restores the
// fail-fast contract: the same forced panic surfaces as a typed 500.
func TestDegradeDisabledPerRequest(t *testing.T) {
	t.Cleanup(fault.Uninstall)
	srv := chaosServer(t, Config{DegradeBudget: 2 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fault.Install(fault.Schedule{Seed: 1, Rules: []fault.Rule{
		{Point: "core.exact", Kind: fault.KindPanic, P: 1},
	}})
	req := QueryRequest{SQL: "SELECT SUM(x) FROM t", Mode: "exact", NoDegrade: true}
	resp, _, bad := postQuery(t, ts.URL, req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 with no_degrade", resp.StatusCode)
	}
	if !strings.Contains(bad.Error, core.ErrQueryPanic.Error()) {
		t.Fatalf("error body %q does not carry the typed panic error", bad.Error)
	}
}

// TestDegradeBreakerTripsAndRecovers walks an engine breaker through
// its full cycle over HTTP: consecutive panics trip it (engine_tripped
// gauge set, fast-fail 503 without touching the engine), and after the
// cooldown a half-open probe with injection disarmed closes it again.
func TestDegradeBreakerTripsAndRecovers(t *testing.T) {
	t.Cleanup(fault.Uninstall)
	srv := chaosServer(t, Config{
		DegradeBudget:    -1, // ladder off: breaker behavior in isolation
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fault.Install(fault.Schedule{Seed: 1, Rules: []fault.Rule{
		{Point: "core.exact", Kind: fault.KindPanic, P: 1},
	}})
	req := QueryRequest{SQL: "SELECT COUNT(*) FROM t", Mode: "exact"}
	for i := 0; i < 2; i++ {
		resp, _, _ := postQuery(t, ts.URL, req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("panic %d: status = %d, want 500", i, resp.StatusCode)
		}
	}
	// Third request: breaker open, short-circuited before the engine.
	hitsBefore := pointHits(t, "core.exact")
	resp, _, bad := postQuery(t, ts.URL, req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("tripped breaker: status = %d (%s), want 503", resp.StatusCode, bad.Error)
	}
	if got := pointHits(t, "core.exact"); got != hitsBefore {
		t.Fatalf("engine reached while breaker open: hits %d -> %d", hitsBefore, got)
	}
	snap := getMetrics(t, ts.URL)
	if snap.Gauges[Key("engine_tripped", "engine", "exact")] != 1 {
		t.Error("engine_tripped{engine=exact} gauge not set while open")
	}
	if snap.Counters[Key("breaker_trips_total", "engine", "exact")] == 0 {
		t.Error("breaker_trips_total{engine=exact} not incremented")
	}

	// Heal the engine and wait out the cooldown: the half-open probe
	// must succeed and close the breaker.
	fault.Uninstall()
	time.Sleep(60 * time.Millisecond)
	resp, ok, bad := postQuery(t, ts.URL, req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("half-open probe: status = %d (%s), want 200", resp.StatusCode, bad.Error)
	}
	if ok.Degraded {
		t.Error("healed engine answered degraded")
	}
	snap = getMetrics(t, ts.URL)
	if snap.Gauges[Key("engine_tripped", "engine", "exact")] != 0 {
		t.Error("engine_tripped{engine=exact} gauge still set after recovery")
	}
}

// pointHits reads one injection point's hit counter from the registry.
func pointHits(t *testing.T, name string) int64 {
	t.Helper()
	for _, st := range fault.Status() {
		if st.Name == name {
			return st.Hits
		}
	}
	t.Fatalf("injection point %s not registered", name)
	return 0
}
