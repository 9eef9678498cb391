package server

// Contract execution over HTTP: the request flag routes through the
// two-stage contract path, the response carries the full contract block
// (sizing, cost, verdict), verdict outcomes are metered, infeasible
// contracts come back refused rather than silently approximated, and the
// fail-fast/no-degrade interaction keeps contract answers honest when
// the primary engine is faulted.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	aqp "repro"
	"repro/internal/contract"
	"repro/internal/fault"
)

// contractDB builds the shared table with sampling forced on: the
// contract paths are the subject here, not the advisor's "too small to
// sample" shortcut.
func contractDB(t testing.TB, n int) *aqp.DB {
	t.Helper()
	return buildDB(t, n,
		aqp.WithOnlineConfig(aqp.OnlineConfig{DefaultRate: 0.5, MinTableRows: 1, Seed: 42}),
		aqp.WithOLAConfig(aqp.OLAConfig{ChunkRows: 2048, Seed: 42}),
	)
}

// TestContractEndpoint: a contract query answers with the contract block
// and a non-exact guarantee consistent with the verdict, and the verdict
// is counted in queries_contract_total.
func TestContractEndpoint(t *testing.T) {
	db := contractDB(t, 20000)
	srv := New(db, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, ok, bad := postQuery(t, ts.URL, QueryRequest{
		SQL:      "SELECT SUM(x) FROM t WITH ERROR 2% CONFIDENCE 95%",
		Contract: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("contract query: status %d (%s)", resp.StatusCode, bad.Error)
	}
	c := ok.Contract
	if c == nil {
		t.Fatalf("no contract block in response: %+v", ok)
	}
	if c.TargetRelError != 0.02 || c.Confidence != 0.95 {
		t.Fatalf("contract echo wrong: target=%v conf=%v", c.TargetRelError, c.Confidence)
	}
	if c.PilotRows <= 0 || c.FinalFraction <= 0 {
		t.Fatalf("contract cost not accounted: %+v", c)
	}
	switch c.Verdict {
	case contract.VerdictMet:
		if ok.Guarantee != "a-priori" {
			t.Fatalf("met verdict with guarantee %q", ok.Guarantee)
		}
	case contract.VerdictMissed:
		if ok.Guarantee == "a-priori" {
			t.Fatalf("missed verdict kept an a-priori guarantee")
		}
	default:
		t.Fatalf("unexpected verdict %q for a feasible contract", c.Verdict)
	}
	if len(ok.Items) == 0 || !ok.Items[0][0].HasCI {
		t.Fatalf("contract answer has no CI: %+v", ok.Items)
	}

	snap := getMetrics(t, ts.URL)
	if snap.Counters[Key("queries_contract_total", "outcome", string(c.Verdict))] == 0 {
		t.Fatalf("verdict %q not metered: %v", c.Verdict, snap.Counters)
	}

	// The flag alone works too: spec fields instead of the SQL clause.
	resp, ok, bad = postQuery(t, ts.URL, QueryRequest{
		SQL: "SELECT SUM(x) FROM t", Contract: true,
		RelError: 0.05, Confidence: 0.95, Mode: "ola",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ola contract query: status %d (%s)", resp.StatusCode, bad.Error)
	}
	if ok.Contract == nil || ok.Contract.TargetRelError != 0.05 {
		t.Fatalf("spec-field contract not honored: %+v", ok.Contract)
	}
}

// TestContractInfeasibleOverHTTP: a target whose required sampling
// fraction exceeds the deployment's admission budget is refused —
// verdict infeasible, no a-priori guarantee, and the refusal flagged in
// messages — while still returning a best-effort answer with an honest
// a-posteriori CI.
func TestContractInfeasibleOverHTTP(t *testing.T) {
	db := buildDB(t, 20000,
		aqp.WithOnlineConfig(aqp.OnlineConfig{DefaultRate: 0.5, MinTableRows: 1, Seed: 42}),
		aqp.WithContractConfig(aqp.ContractConfig{BudgetFraction: 0.2}),
	)
	srv := New(db, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, ok, bad := postQuery(t, ts.URL, QueryRequest{
		SQL:      "SELECT SUM(x) FROM t WITH ERROR 0.5% CONFIDENCE 99%",
		Contract: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infeasible contract: status %d (%s)", resp.StatusCode, bad.Error)
	}
	c := ok.Contract
	if c == nil || c.Verdict != contract.VerdictInfeasible || !c.Infeasible {
		t.Fatalf("want infeasible refusal, got %+v", c)
	}
	if ok.Guarantee == "a-priori" {
		t.Fatal("infeasible contract reported a-priori")
	}
	flagged := false
	for _, m := range ok.Messages {
		if strings.Contains(m, contract.InfeasibleFlag) {
			flagged = true
		}
	}
	if !flagged {
		t.Fatalf("refusal not flagged in messages: %v", ok.Messages)
	}
}

// TestContractModeRejected: contract execution is a property of the
// sampling paths; exact, synopsis and as-written modes must reject the
// flag up front with a 400 naming the mode, not quietly ignore it.
func TestContractModeRejected(t *testing.T) {
	db := buildDB(t, 1000)
	srv := New(db, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, mode := range []string{"exact", "synopsis", "as-written"} {
		resp, _, bad := postQuery(t, ts.URL, QueryRequest{
			SQL: "SELECT SUM(x) FROM t", Contract: true, Mode: mode,
			RelError: 0.05, Confidence: 0.95,
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("mode %q + contract: status %d, want 400", mode, resp.StatusCode)
		}
		if !strings.Contains(bad.Error, "contract") || !strings.Contains(bad.Error, "mode "+mode+" ") {
			t.Fatalf("mode %q: error does not name the mode and the contract: %q", mode, bad.Error)
		}
	}
}

// TestContractNoDegradeFailFast: with the ladder disabled, a faulted
// primary engine surfaces as a typed error instead of a silently
// degraded contract answer; with the ladder on, the fallback rung runs
// the contract itself, so the response still carries a verdict and
// discloses the degrade.
func TestContractNoDegradeFailFast(t *testing.T) {
	t.Cleanup(fault.Uninstall)
	db := contractDB(t, 20000)
	srv := New(db, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fault.Install(fault.Schedule{Seed: 1, Rules: []fault.Rule{
		{Point: "core.online", Kind: fault.KindPanic, P: 1},
	}})

	req := QueryRequest{
		SQL:      "SELECT SUM(x) FROM t WITH ERROR 5% CONFIDENCE 95%",
		Contract: true, Mode: "online",
	}
	req.NoDegrade = true
	resp, _, bad := postQuery(t, ts.URL, req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("no_degrade faulted contract: status %d (%s), want 500",
			resp.StatusCode, bad.Error)
	}

	req.NoDegrade = false
	resp, ok, bad := postQuery(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degradable faulted contract: status %d (%s)", resp.StatusCode, bad.Error)
	}
	if !ok.Degraded || ok.DegradedFrom == "" {
		t.Fatalf("ladder fallback not disclosed: degraded=%v from=%q", ok.Degraded, ok.DegradedFrom)
	}
	if ok.Contract == nil {
		t.Fatal("fallback rung dropped the contract block")
	}
	if ok.Contract.Verdict == "" {
		t.Fatalf("fallback contract has no verdict: %+v", ok.Contract)
	}
}
