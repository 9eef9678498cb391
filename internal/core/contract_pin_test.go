package core

// The contract pin: a seeded golden of what every contract path returns —
// rows, CI bounds, guarantee label, cost counters, messages and the whole
// contract.Summary — recorded before the four two-stage bodies were folded
// into one driver. The coverage harnesses check that contracts stay
// statistically honest; this checks the driver changed nothing at all.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/contract"
	"repro/internal/exec"
	"repro/internal/sqlparse"
)

var updateContractPin = flag.Bool("update-contract-pin", false, "rewrite testdata/contract_pin.json")

type contractPinItem struct {
	Name     string  `json:"name"`
	Value    string  `json:"value"`
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	HasCI    bool    `json:"has_ci"`
	Variance float64 `json:"variance"`
	SampleN  float64 `json:"sample_n"`
}

type contractPinCase struct {
	Name           string              `json:"name"`
	Technique      Technique           `json:"technique"`
	Guarantee      string              `json:"guarantee"`
	Rows           [][]contractPinItem `json:"rows"`
	RowsScanned    int64               `json:"rows_scanned"`
	RowsEmitted    int64               `json:"rows_emitted"`
	Passes         int64               `json:"passes"`
	SampleFraction float64             `json:"sample_fraction"`
	FellBack       bool                `json:"fell_back_to_exact"`
	Messages       []string            `json:"messages"`
	Contract       *contract.Summary   `json:"contract"`
}

func pinContractResult(name string, res *Result) contractPinCase {
	c := contractPinCase{
		Name: name, Technique: res.Technique, Guarantee: res.Guarantee.String(),
		RowsScanned:    res.Diagnostics.Counters.RowsScanned,
		RowsEmitted:    res.Diagnostics.Counters.RowsEmitted,
		Passes:         res.Diagnostics.Counters.Passes,
		SampleFraction: res.Diagnostics.SampleFraction,
		FellBack:       res.Diagnostics.FellBackToExact,
		Messages:       res.Diagnostics.Messages,
		Contract:       res.Diagnostics.Contract,
	}
	for _, row := range res.Items {
		var out []contractPinItem
		for _, it := range row {
			out = append(out, contractPinItem{Name: it.Name, Value: it.Value.String(),
				Lo: it.CI.Lo, Hi: it.CI.Hi, HasCI: it.HasCI, Variance: it.Variance, SampleN: it.SampleN})
		}
		c.Rows = append(c.Rows, out)
	}
	return c
}

func TestContractPin(t *testing.T) {
	ev, sum, _ := coverageFixture(t)
	grouped := parse(t, "SELECT ev_group, SUM(ev_value) AS s, COUNT(*) AS n FROM events GROUP BY ev_group ORDER BY ev_group")
	pct := parse(t, "SELECT PERCENTILE(ev_value, 0.5) AS med FROM events")
	minq := parse(t, "SELECT MIN(ev_value) AS lo FROM events")

	online := func(m int) Engine {
		e := NewOnlineEngine(ev.Catalog, OnlineConfig{DefaultRate: 0.5, MinTableRows: 1, Seed: 1042})
		if m > 0 {
			e.Shards = shardedFixture(t, ev, m)
		}
		return e
	}
	ola := func() Engine {
		return NewOLAEngine(ev.Catalog, OLAConfig{ChunkRows: 512, Seed: 3042})
	}
	offline := func() Engine {
		return NewOfflineEngine(ev.Catalog, OfflineConfig{Seed: 2042})
	}
	tight := ErrorSpec{RelError: 0.02, Confidence: 0.95}
	loose := ErrorSpec{RelError: 0.4, Confidence: 0.9}
	sharded := DefaultContractConfig()
	sharded.MinPilotRows = 400

	cases := []struct {
		name string
		eng  Engine
		stmt string
		spec ErrorSpec
		cfg  ContractConfig
	}{
		{"online", online(0), "sum", tight, DefaultContractConfig()},
		{"online-grouped", online(0), "grouped", ErrorSpec{RelError: 0.1, Confidence: 0.95}, DefaultContractConfig()},
		{"online-shards4", online(4), "sum", tight, sharded},
		{"online-shards4-grouped", online(4), "grouped", ErrorSpec{RelError: 0.1, Confidence: 0.95}, sharded},
		{"online-shards1", online(1), "sum", tight, DefaultContractConfig()},
		{"ola-pilot-is-stage-two", ola(), "sum", loose, ContractConfig{PilotFraction: 0.3}},
		{"ola-two-pass", ola(), "sum", tight, DefaultContractConfig()},
		{"offline", offline(), "sum", tight, DefaultContractConfig()},
		{"online-infeasible", online(0), "sum", ErrorSpec{RelError: 0.001, Confidence: 0.99}, ContractConfig{BudgetFraction: 0.2}},
		{"online-shards4-infeasible", online(4), "sum", ErrorSpec{RelError: 0.001, Confidence: 0.99}, ContractConfig{BudgetFraction: 0.2}},
		{"ola-infeasible", ola(), "sum", ErrorSpec{RelError: 0.001, Confidence: 0.99}, ContractConfig{BudgetFraction: 0.2}},
		{"offline-infeasible", offline(), "sum", ErrorSpec{RelError: 0.001, Confidence: 0.99}, ContractConfig{BudgetFraction: 0.2}},
		{"online-percentile", online(0), "pct", tight, DefaultContractConfig()},
		{"online-shards4-percentile", online(4), "pct", tight, DefaultContractConfig()},
		{"ola-percentile", ola(), "pct", tight, DefaultContractConfig()},
		{"offline-percentile", offline(), "pct", tight, DefaultContractConfig()},
		{"online-min-exact-fallback", online(0), "min", tight, DefaultContractConfig()},
		{"ola-min-exact-fallback", ola(), "min", tight, DefaultContractConfig()},
		{"offline-min-exact-fallback", offline(), "min", tight, DefaultContractConfig()},
		{"online-invalid-spec", online(0), "sum", ErrorSpec{}, ContractConfig{}},
	}
	stmts := map[string]*sqlparse.SelectStmt{"sum": sum, "grouped": grouped, "pct": pct, "min": minq}

	var got []contractPinCase
	ctx := exec.ContextWithWorkers(context.Background(), 2)
	for _, c := range cases {
		res, err := ExecuteContract(ctx, c.eng, stmts[c.stmt], c.spec, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, pinContractResult(c.name, res))
	}
	blob, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	path := filepath.Join("testdata", "contract_pin.json")
	if *updateContractPin {
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
		t.Fatalf("contract pin: %v (run with -update-contract-pin to generate)", err)
	}
	if !bytes.Equal(blob, want) {
		t.Errorf("contract execution drifted from %s:\n got: %s\nwant: %s", path, blob, want)
	}
}
