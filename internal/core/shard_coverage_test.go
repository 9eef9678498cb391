package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/shard"
	"repro/internal/workload"
)

// shardedFixture partitions the coverage fixture's events table into n
// hash shards on ev_user and returns a registry ready to hand to engines.
func shardedFixture(t *testing.T, ev *workload.Events, n int) *shard.Map {
	t.Helper()
	g, err := shard.Partition(ev.Table,
		shard.Key{Column: "ev_user", Kind: shard.KeyHash, Count: n}, fault.BreakerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m := shard.NewMap()
	if err := m.Add(g); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestShardedCoverage: the statistical harness over the scatter-gather
// path. For each shard count, 500 independently seeded query-time samples
// with per-shard derived seeds must keep the composed 95% CI honest — the
// stratified composition neither narrows (undercovers) nor inflates the
// interval, at any fan-out.
func TestShardedCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage harness is long; skipped under -short")
	}
	ev, stmt, truth := coverageFixture(t)
	spec := ErrorSpec{RelError: 0.5, Confidence: 0.95}
	for _, n := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			m := shardedFixture(t, ev, n)
			covered := 0
			for trial := 0; trial < coverageTrials; trial++ {
				eng := NewOnlineEngine(ev.Catalog, OnlineConfig{
					DefaultRate: 0.1, MinTableRows: 1, Seed: int64(1000 + trial)})
				eng.Shards = m
				serial := runCoverageTrial(t, eng, stmt, spec, 1)
				parallel := runCoverageTrial(t, eng, stmt, spec, 4)
				assertTrialsEqual(t, fmt.Sprintf("sharded-%d", n), trial, serial, parallel)
				if serial.lo <= truth && truth <= serial.hi {
					covered++
				}
			}
			checkCoverage(t, fmt.Sprintf("sharded-%d", n), covered, coverageTrials)
		})
	}
}

// TestShardSingleBitIdentity: a one-shard group references the base table
// directly and shard 0 keeps the identity sampler seed, so the sharded
// engine must reproduce the unsharded engine bit for bit — estimates and
// CI endpoints alike — across many seeds.
func TestShardSingleBitIdentity(t *testing.T) {
	ev, stmt, _ := coverageFixture(t)
	spec := ErrorSpec{RelError: 0.5, Confidence: 0.95}
	m := shardedFixture(t, ev, 1)
	for trial := 0; trial < 50; trial++ {
		cfg := OnlineConfig{DefaultRate: 0.1, MinTableRows: 1, Seed: int64(4000 + trial)}
		plain := NewOnlineEngine(ev.Catalog, cfg)
		sharded := NewOnlineEngine(ev.Catalog, cfg)
		sharded.Shards = m
		for _, w := range []int{1, 4} {
			a := runCoverageTrial(t, plain, stmt, spec, w)
			b := runCoverageTrial(t, sharded, stmt, spec, w)
			if math.Float64bits(a.estimate) != math.Float64bits(b.estimate) ||
				math.Float64bits(a.lo) != math.Float64bits(b.lo) ||
				math.Float64bits(a.hi) != math.Float64bits(b.hi) {
				t.Fatalf("trial %d W=%d: sharded N=1 diverged: est %v vs %v, CI [%v,%v] vs [%v,%v]",
					trial, w, b.estimate, a.estimate, b.lo, b.hi, a.lo, a.hi)
			}
		}
	}

	// The exact engine too: one shard, zero shards — same bits.
	exPlain := NewExactEngine(ev.Catalog)
	exSharded := NewExactEngine(ev.Catalog)
	exSharded.Shards = m
	ra, err := exPlain.Execute(context.Background(), stmt, DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := exSharded.Execute(context.Background(), stmt, DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(ra.Float(0, 0)) != math.Float64bits(rb.Float(0, 0)) {
		t.Fatalf("exact sharded N=1 diverged: %v vs %v", rb.Float(0, 0), ra.Float(0, 0))
	}
	if rb.Diagnostics.Shards == nil || rb.Diagnostics.Shards.Count != 1 {
		t.Fatalf("sharded exact run did not report its shard summary: %+v", rb.Diagnostics.Shards)
	}
	if ra.Diagnostics.Shards != nil {
		t.Fatalf("unsharded run reported a shard summary: %+v", ra.Diagnostics.Shards)
	}
}

// TestShardDegradeUnderChaos: an injected panic takes out exactly one of
// four shards; the query still succeeds, reports itself degraded with the
// failed shard attributed, extrapolates the survivors to the full
// population, and keeps a non-degenerate a-posteriori CI.
func TestShardDegradeUnderChaos(t *testing.T) {
	ev, stmt, truth := coverageFixture(t)
	m := shardedFixture(t, ev, 4)
	rules, err := fault.ParseRules("shard.estimate.2:panic:1")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(fault.Schedule{Seed: 11, Rules: rules})
	defer fault.Uninstall()

	eng := NewOnlineEngine(ev.Catalog, OnlineConfig{
		DefaultRate: 0.1, MinTableRows: 1, Seed: 42})
	eng.Shards = m
	res, err := eng.Execute(context.Background(), stmt, ErrorSpec{RelError: 0.5, Confidence: 0.95})
	if err != nil {
		t.Fatalf("degraded query failed outright: %v", err)
	}
	if !res.Diagnostics.Degraded {
		t.Fatal("result not marked degraded")
	}
	sum := res.Diagnostics.Shards
	if sum == nil || len(sum.Degraded) != 1 || sum.Degraded[0] != 2 {
		t.Fatalf("shard summary = %+v, want Degraded=[2]", sum)
	}
	if !sum.Extrapolated {
		t.Fatal("hash-sharded sampled degradation must extrapolate survivors")
	}
	if sum.CoverageFraction <= 0.5 || sum.CoverageFraction >= 1 {
		t.Fatalf("coverage fraction %v, want in (0.5, 1)", sum.CoverageFraction)
	}
	if res.Guarantee != GuaranteeAPosteriori {
		t.Fatalf("guarantee %v, want a-posteriori", res.Guarantee)
	}
	it := res.Items[0][0]
	if !it.HasCI || !(it.CI.Hi > it.CI.Lo) {
		t.Fatalf("degraded result has no usable CI: %+v", it)
	}
	// The extrapolated estimate stays in the right ballpark (the lost shard
	// held ~25% of rows; a wildly-off answer means extrapolation is broken).
	est := res.Float(0, 0)
	if math.Abs(est-truth) > 0.5*math.Abs(truth) {
		t.Fatalf("extrapolated estimate %v implausibly far from truth %v", est, truth)
	}

	// Exact sharded runs degrade honestly too: no variance to widen, so the
	// guarantee drops to none rather than faking certainty.
	ex := NewExactEngine(ev.Catalog)
	ex.Shards = m
	exRes, err := ex.Execute(context.Background(), stmt, DefaultErrorSpec)
	if err != nil {
		t.Fatalf("degraded exact query failed outright: %v", err)
	}
	if !exRes.Diagnostics.Degraded || exRes.Guarantee != GuaranteeNone {
		t.Fatalf("degraded exact run: degraded=%v guarantee=%v, want true/none",
			exRes.Diagnostics.Degraded, exRes.Guarantee)
	}
	if exRes.Diagnostics.Shards == nil || exRes.Diagnostics.Shards.Extrapolated {
		t.Fatalf("degraded exact run must not extrapolate: %+v", exRes.Diagnostics.Shards)
	}
}

// TestShardedWorkerInvariance: the exact sharded path is deterministic
// across worker budgets.
func TestShardedWorkerInvariance(t *testing.T) {
	ev, stmt, truth := coverageFixture(t)
	eng := NewExactEngine(ev.Catalog)
	eng.Shards = shardedFixture(t, ev, 4)
	var first float64
	for i, w := range []int{1, 2, 4, 7} {
		ctx := exec.ContextWithWorkers(context.Background(), w)
		res, err := eng.Execute(ctx, stmt, DefaultErrorSpec)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Float(0, 0)
		if i == 0 {
			first = got
		} else if math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("W=%d: sharded exact answer %v != W=1 answer %v", w, got, first)
		}
		// Shard-partition bracketing differs from the unsharded sum; agree
		// to tolerance, not bits.
		if math.Abs(got-truth) > 1e-9*math.Abs(truth) {
			t.Fatalf("W=%d: sharded exact %v far from truth %v", w, got, truth)
		}
	}
}
