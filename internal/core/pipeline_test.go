package core

// The seam pin: every kind of draw the engines hand the execution pipeline
// — exact, as-written, online plain / sharded, offline stored,
// contract stages — with the Diagnostics the pipeline stamps on the answer,
// recorded before the per-engine execute bodies were folded into it.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/shard"
	"repro/internal/sqlparse"
)

var updatePipelinePin = flag.Bool("update-pipeline-pin", false, "rewrite testdata/pipeline_pin.json")

type pipelinePinCase struct {
	Name           string            `json:"name"`
	Technique      Technique         `json:"technique"`
	Guarantee      string            `json:"guarantee"`
	SampleFraction float64           `json:"sample_fraction"`
	Workers        int               `json:"workers"`
	Lineage        SampleLineage     `json:"lineage"`
	Shards         *ShardExecSummary `json:"shards"`
	Degraded       bool              `json:"degraded"`
	Stale          bool              `json:"stale"`
	FellBack       bool              `json:"fell_back_to_exact"`
	SpecSatisfied  bool              `json:"spec_satisfied"`
	Counters       exec.Counters     `json:"counters"`
	Messages       []string          `json:"messages"`
	Value          string            `json:"value"`
}

func pinPipelineResult(name string, res *Result) pipelinePinCase {
	d := res.Diagnostics
	return pipelinePinCase{
		Name: name, Technique: res.Technique, Guarantee: res.Guarantee.String(),
		SampleFraction: d.SampleFraction, Workers: d.Workers, Lineage: d.Lineage,
		Shards: d.Shards, Degraded: d.Degraded, Stale: d.Stale, FellBack: d.FellBackToExact,
		SpecSatisfied: d.SpecSatisfied, Counters: d.Counters, Messages: d.Messages,
		Value: res.Rows[0][0].String(),
	}
}

func TestPipelinePin(t *testing.T) {
	ev, sum, _ := coverageFixture(t)
	sampled := parse(t, "SELECT SUM(ev_value) AS s FROM events TABLESAMPLE BERNOULLI (10)")
	spec := ErrorSpec{RelError: 0.5, Confidence: 0.95}
	hash := func(n int) *shard.Map { return shardedFixture(t, ev, n) }
	ranged := func(n int) *shard.Map {
		g, err := shard.Partition(ev.Table,
			shard.Key{Column: "ev_user", Kind: shard.KeyRange, Count: n}, fault.BreakerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		m := shard.NewMap()
		if err := m.Add(g); err != nil {
			t.Fatal(err)
		}
		return m
	}
	exact := func(m *shard.Map) *ExactEngine {
		return &ExactEngine{Catalog: ev.Catalog, Shards: m}
	}
	online := func(m *shard.Map, tune func(*OnlineConfig)) *OnlineEngine {
		cfg := OnlineConfig{DefaultRate: 0.1, MinTableRows: 1, Seed: 1042}
		if tune != nil {
			tune(&cfg)
		}
		e := NewOnlineEngine(ev.Catalog, cfg)
		e.Shards = m
		return e
	}
	offline := NewOfflineEngine(ev.Catalog, OfflineConfig{
		Caps: []int{64}, UniformRates: []float64{0.05, 0.2}, SafetyFactor: 1, Seed: 2042})
	if err := offline.BuildSamples("events", nil); err != nil {
		t.Fatal(err)
	}
	if err := offline.ProfileQuery(sum.String()); err != nil {
		t.Fatal(err)
	}
	tight := ErrorSpec{RelError: 0.02, Confidence: 0.95}

	type runFn func(ctx context.Context) (*Result, error)
	engineAt := func(e Engine, stmt *sqlparse.SelectStmt, spec ErrorSpec) runFn {
		return func(ctx context.Context) (*Result, error) {
			return e.Execute(ctx, stmt, spec)
		}
	}
	engine := func(e Engine, stmt *sqlparse.SelectStmt) runFn { return engineAt(e, stmt, spec) }
	contracted := func(e Engine) runFn {
		return func(ctx context.Context) (*Result, error) {
			return ExecuteContract(ctx, e, sum, tight, DefaultContractConfig())
		}
	}
	asWritten := func(stmt *sqlparse.SelectStmt) runFn {
		return func(ctx context.Context) (*Result, error) {
			return exact(nil).ExecuteAsWritten(ctx, stmt, spec)
		}
	}
	cases := []struct {
		name  string
		run   runFn
		chaos string // fault rules installed for this case only
	}{
		{"exact", engine(exact(nil), sum), ""},
		{"exact-shards4", engine(exact(hash(4)), sum), ""},
		{"exact-shards4-faulted", engine(exact(hash(4)), sum), "shard.estimate.2:panic:1"},
		{"as-written-sampled", asWritten(sampled), ""},
		{"as-written-unsampled", asWritten(sum), ""},
		{"online", engine(online(nil, nil), sum), ""},
		{"online-tablesample", engine(online(nil, nil), sampled), ""},
		{"online-shards1", engine(online(hash(1), nil), sum), ""},
		{"online-shards4", engine(online(hash(4), nil), sum), ""},
		{"online-shards4-faulted", engine(online(hash(4), nil), sum), "shard.estimate.2:panic:1"},
		{"online-range4-faulted", engine(online(ranged(4), nil), sum), "shard.estimate.2:panic:1"},
		{"online-fallback-on-miss", engineAt(online(nil, func(c *OnlineConfig) {
			c.DefaultRate, c.FallbackToExact = 0.01, true
		}), sum, tight), ""},
		{"online-shards4-fallback-on-miss", engineAt(online(hash(4), func(c *OnlineConfig) {
			c.DefaultRate, c.FallbackToExact = 0.01, true
		}), sum, tight), ""},
		{"offline-stored", engine(offline, sum), ""},
		{"online-contract", contracted(online(nil, nil)), ""},
		{"online-shards4-contract", contracted(online(hash(4), nil)), ""},
		{"offline-contract", contracted(offline), ""},
	}

	var got []pipelinePinCase
	ctx := exec.ContextWithWorkers(context.Background(), 2)
	for _, c := range cases {
		if c.chaos != "" {
			rules, err := fault.ParseRules(c.chaos)
			if err != nil {
				t.Fatal(err)
			}
			fault.Install(fault.Schedule{Seed: 11, Rules: rules})
		}
		res, err := c.run(ctx)
		fault.Uninstall()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, pinPipelineResult(c.name, res))
	}
	blob, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	path := filepath.Join("testdata", "pipeline_pin.json")
	if *updatePipelinePin {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("pipeline pin: %v (run with -update-pipeline-pin to generate)", err)
	}
	if !bytes.Equal(blob, want) {
		t.Errorf("pipeline stamps drifted from %s:\n got: %s\nwant: %s", path, blob, want)
	}
}

// Every draw gets the spec-miss fallback, one whose kept rows the memo
// already holds included: with FallbackToExact on, a repeat query whose CIs
// miss the spec must re-run exactly and account for both passes just like
// the first.
func TestPipelineFallbackCoversCachedDraw(t *testing.T) {
	ev, stmt, truth := coverageFixture(t)
	tight := ErrorSpec{RelError: 0.001, Confidence: 0.99}
	e := NewOnlineEngine(ev.Catalog, OnlineConfig{DefaultRate: 0.01, MinTableRows: 1, Seed: 7,
		FallbackToExact: true})
	for _, name := range []string{"first", "repeat"} {
		res, err := e.Execute(context.Background(), stmt, tight)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Diagnostics.FellBackToExact || res.Technique != TechniqueExact || res.Float(0, 0) != truth ||
			res.Diagnostics.Counters.Passes != 2 {
			t.Errorf("%s: fell_back=%v technique=%v value=%v passes=%d, want the exact re-run (%v) in 2 passes; messages %v",
				name, res.Diagnostics.FellBackToExact, res.Technique, res.Float(0, 0), res.Diagnostics.Counters.Passes,
				truth, res.Diagnostics.Messages)
		}
	}
}

// The advisor names the sample the offline engine answers from: the
// cheapest certified one, not the first in the ladder.
func TestAdvisorNamesTheAnsweringSample(t *testing.T) {
	ev, stmt, _ := coverageFixture(t)
	// Built big-then-small, so first certified != cheapest certified.
	offline := NewOfflineEngine(ev.Catalog, OfflineConfig{
		UniformRates: []float64{0.2, 0.05}, SafetyFactor: 1, Seed: 2042})
	if err := offline.BuildSamples("events", nil); err != nil {
		t.Fatal(err)
	}
	if err := offline.ProfileQuery(stmt.String()); err != nil {
		t.Fatal(err)
	}
	adv := NewAdvisor(NewExactEngine(ev.Catalog), nil, offline, nil, nil)
	res, dec, err := adv.Execute(context.Background(), stmt, ErrorSpec{RelError: 0.5, Confidence: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	ladder := offline.Samples("events")
	answered := res.Diagnostics.Lineage.SampleName
	if dec.Technique != TechniqueOffline || answered != ladder[1].Name {
		t.Fatalf("routed to %v, answered from %q; want offline from the cheaper %q",
			dec.Technique, answered, ladder[1].Name)
	}
	if want := "certified fresh offline sample " + answered; dec.Reason != want {
		t.Errorf("advisor reason %q, want %q", dec.Reason, want)
	}
}
