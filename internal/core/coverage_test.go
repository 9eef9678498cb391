package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// The statistical-correctness harness: for each approximate engine, run
// many independently seeded trials of the same query and check that the
// empirical coverage of the reported 95% confidence intervals sits inside
// a binomial tolerance band around the nominal level. With 500 trials at
// p = 0.95 the binomial standard deviation is ~0.0097, so the band below
// is roughly nominal ± 6σ — wide enough never to flake on seed choice,
// tight enough to catch intervals that are wrong (too narrow) or vacuous
// (degenerate or orders of magnitude too wide paired with exact fallback,
// which the per-trial guards reject outright).
const (
	coverageTrials   = 500
	coverageLowBand  = 0.89
	coverageHighBand = 1.0
)

// coverageTrialResult is what one engine trial must report to the harness.
type coverageTrialResult struct {
	estimate float64
	lo, hi   float64
}

// runCoverageTrial executes stmt on eng at the given worker count and
// extracts the single aggregate's estimate and CI, enforcing the per-trial
// sanity guards (a real CI, no silent exact fallback).
func runCoverageTrial(t *testing.T, eng Engine, stmt *sqlparse.SelectStmt, spec ErrorSpec, workers int) coverageTrialResult {
	t.Helper()
	ctx := exec.ContextWithWorkers(context.Background(), workers)
	res, err := eng.Execute(ctx, stmt, spec)
	if err != nil {
		t.Fatalf("%s: %v", eng.Name(), err)
	}
	return coverageTrialOf(t, eng.Name(), res)
}

// coverageTrialOf extracts what the harness compares from one answer,
// enforcing the per-trial sanity guards.
func coverageTrialOf(t *testing.T, name Technique, res *Result) coverageTrialResult {
	t.Helper()
	if res.Diagnostics.FellBackToExact {
		t.Fatalf("%s fell back to exact: %v", name, res.Diagnostics.Messages)
	}
	if res.NumRows() != 1 || len(res.Items[0]) != 1 {
		t.Fatalf("%s: want one row, one item; got %d rows", name, res.NumRows())
	}
	it := res.Items[0][0]
	if !it.IsAggregate || !it.HasCI {
		t.Fatalf("%s: aggregate item carries no CI", name)
	}
	if !(it.CI.Hi > it.CI.Lo) {
		t.Fatalf("%s: degenerate CI [%v, %v]", name, it.CI.Lo, it.CI.Hi)
	}
	return coverageTrialResult{estimate: res.Float(0, 0), lo: it.CI.Lo, hi: it.CI.Hi}
}

// checkCoverage asserts the empirical coverage is inside the band and
// that serial and 4-worker runs agreed bit-for-bit on every trial.
func checkCoverage(t *testing.T, name string, covered, trials int) {
	t.Helper()
	cov := float64(covered) / float64(trials)
	t.Logf("%s: empirical 95%%-CI coverage %.4f (%d/%d)", name, cov, covered, trials)
	if cov < coverageLowBand || cov > coverageHighBand {
		t.Errorf("%s: coverage %.4f outside tolerance band [%.2f, %.2f]",
			name, cov, coverageLowBand, coverageHighBand)
	}
}

// assertTrialsEqual requires the serial and parallel trial to be
// bit-identical: the morsel executor's merge order is fixed by the morsel
// grid, not by worker scheduling, so W=1 and W=4 must produce the same
// floats down to the last bit — estimates and interval endpoints alike.
func assertTrialsEqual(t *testing.T, name string, trial int, serial, parallel coverageTrialResult) {
	t.Helper()
	if math.Float64bits(serial.estimate) != math.Float64bits(parallel.estimate) {
		t.Fatalf("%s trial %d: estimate differs across worker counts: %v (W=1) vs %v (W=4)",
			name, trial, serial.estimate, parallel.estimate)
	}
	if math.Float64bits(serial.lo) != math.Float64bits(parallel.lo) ||
		math.Float64bits(serial.hi) != math.Float64bits(parallel.hi) {
		t.Fatalf("%s trial %d: CI differs across worker counts: [%v, %v] vs [%v, %v]",
			name, trial, serial.lo, serial.hi, parallel.lo, parallel.hi)
	}
}

// coverageFixture builds the shared table and ground truth for the
// harness: 4000 exponential-valued rows, SUM over all of them.
func coverageFixture(t *testing.T) (*workload.Events, *sqlparse.SelectStmt, float64) {
	t.Helper()
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: 101, Rows: 4000, NumGroups: 16, Skew: 0.8, BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	stmt := parse(t, "SELECT SUM(ev_value) AS s FROM events")
	exact, err := NewExactEngine(ev.Catalog).Execute(context.Background(), stmt, DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	return ev, stmt, exact.Float(0, 0)
}

// TestOnlineCoverage: 500 fresh query-time samples, one per seed.
func TestOnlineCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage harness is long; skipped under -short")
	}
	ev, stmt, truth := coverageFixture(t)
	spec := ErrorSpec{RelError: 0.5, Confidence: 0.95}
	covered := 0
	for trial := 0; trial < coverageTrials; trial++ {
		eng := NewOnlineEngine(ev.Catalog, OnlineConfig{
			DefaultRate: 0.1, MinTableRows: 1, Seed: int64(1000 + trial)})
		serial := runCoverageTrial(t, eng, stmt, spec, 1)
		parallel := runCoverageTrial(t, eng, stmt, spec, 4)
		assertTrialsEqual(t, "online", trial, serial, parallel)
		if serial.lo <= truth && truth <= serial.hi {
			covered++
		}
	}
	checkCoverage(t, "online", covered, coverageTrials)
}

// TestOfflineCoverage: 500 independently built uniform samples, each
// profiled so the engine certifies it rather than falling back.
func TestOfflineCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage harness is long; skipped under -short")
	}
	ev, stmt, truth := coverageFixture(t)
	spec := ErrorSpec{RelError: 0.5, Confidence: 0.95}
	sql := stmt.String()
	covered := 0
	for trial := 0; trial < coverageTrials; trial++ {
		eng := NewOfflineEngine(ev.Catalog, OfflineConfig{
			UniformRates: []float64{0.1}, SafetyFactor: 1, Seed: int64(2000 + trial)})
		if err := eng.BuildSamples("events", nil); err != nil {
			t.Fatal(err)
		}
		if err := eng.ProfileQuery(sql); err != nil {
			t.Fatal(err)
		}
		serial := runCoverageTrial(t, eng, stmt, spec, 1)
		parallel := runCoverageTrial(t, eng, stmt, spec, 4)
		assertTrialsEqual(t, "offline", trial, serial, parallel)
		if serial.lo <= truth && truth <= serial.hi {
			covered++
		}
	}
	checkCoverage(t, "offline", covered, coverageTrials)
}

// TestOLACoverage: 500 random row permutations, each stopped at a fixed
// 25% fraction (StopWhenSpecMet off, so no peeking bias in the harness).
// Worker-count bit-identity is held at every checkpoint the observer sees,
// not only at the answer.
func TestOLACoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage harness is long; skipped under -short")
	}
	ev, stmt, truth := coverageFixture(t)
	spec := ErrorSpec{RelError: 0.5, Confidence: 0.95}
	covered := 0
	for trial := 0; trial < coverageTrials; trial++ {
		eng := NewOLAEngine(ev.Catalog, OLAConfig{
			ChunkRows: 512, MaxFraction: 0.25, StopWhenSpecMet: false,
			Seed: int64(3000 + trial)})
		// checkpoints returns every interim estimate, then the answer.
		checkpoints := func(workers int) []coverageTrialResult {
			seen, res := olaCheckpoints(t, eng, stmt, spec, workers)
			var out []coverageTrialResult
			for _, r := range append(seen, res) {
				out = append(out, coverageTrialOf(t, eng.Name(), r))
			}
			return out
		}
		serial, parallel := checkpoints(1), checkpoints(4)
		if len(serial) != 3 || len(parallel) != 3 {
			t.Fatalf("ola trial %d: %d and %d results, want two checkpoints and the answer", trial, len(serial), len(parallel))
		}
		for c := range serial {
			assertTrialsEqual(t, "ola", trial, serial[c], parallel[c])
		}
		if answer := serial[2]; answer.lo <= truth && truth <= answer.hi {
			covered++
		}
	}
	checkCoverage(t, "ola", covered, coverageTrials)
}

// TestExactWorkerInvariance: the exact engine has no sampling error, so
// across worker counts the answer must be bit-identical and equal to the
// truth the fixture computed.
func TestExactWorkerInvariance(t *testing.T) {
	ev, stmt, truth := coverageFixture(t)
	eng := NewExactEngine(ev.Catalog)
	for _, w := range []int{1, 2, 4, 7} {
		ctx := exec.ContextWithWorkers(context.Background(), w)
		res, err := eng.Execute(ctx, stmt, DefaultErrorSpec)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.Float(0, 0)) != math.Float64bits(truth) {
			t.Fatalf("W=%d: exact answer %v != %v", w, res.Float(0, 0), truth)
		}
		if res.Diagnostics.Workers != w {
			t.Errorf("W=%d: diagnostics report %d workers", w, res.Diagnostics.Workers)
		}
	}
}

// TestOnlineGroupedCoverage puts the distinct sampler's per-group interval
// in the harness: 500 query-time samples of a skewed GROUP BY over three
// morsels. A group no larger than the pass-through is read whole — exact,
// zero-width interval; a larger one must cover its true sum inside the
// band once its tail, the rows past the pass-through, expects at least
// minTailSample sampled rows; and each trial is bit-identical at one and
// four workers, which is the ordered merge settling the sampler's
// per-stratum counts. Between the two lie the groups whose interval rests
// on a handful of tail rows, or on none (a zero-width interval around the
// passed rows' sum): they under-cover, 20 % to 89 % on this fixture, and
// are logged, not asserted — ROADMAP item 4 owns that label.
func TestOnlineGroupedCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage harness is long; skipped under -short")
	}
	const (
		keep, rate    = 30, 0.1
		minTailSample = 5
	)
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: 101, Rows: 20_000, NumGroups: 48, Skew: 1.5, BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	stmt := parse(t, "SELECT ev_group, SUM(ev_value) AS s FROM events GROUP BY ev_group")
	exact, err := NewExactEngine(ev.Catalog).Execute(context.Background(), stmt, DefaultErrorSpec)
	if err != nil {
		t.Fatal(err)
	}
	truth := make(map[int64]float64)
	for i := range exact.Rows {
		truth[exact.Rows[i][0].AsInt()] = exact.Float(i, 1)
	}
	spec := ErrorSpec{RelError: 0.5, Confidence: 0.95}
	covered := make(map[int64]int)
	for trial := 0; trial < coverageTrials; trial++ {
		eng := NewOnlineEngine(ev.Catalog, OnlineConfig{
			DefaultRate: rate, DistinctKeep: keep, MinTableRows: 1, Seed: int64(4000 + trial)})
		run := func(workers int) *Result {
			res, err := eng.Execute(exec.ContextWithWorkers(context.Background(), workers), stmt, spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Diagnostics.FellBackToExact || res.NumRows() != len(truth) {
				t.Fatalf("trial %d: %d of %d groups, exact fallback %v: %v", trial, res.NumRows(), len(truth),
					res.Diagnostics.FellBackToExact, res.Diagnostics.Messages)
			}
			return res
		}
		serial, parallel := run(1), run(4)
		for i := range serial.Rows {
			g, it, pit := serial.Rows[i][0].AsInt(), serial.Items[i][1], parallel.Items[i][1]
			if parallel.Rows[i][0].AsInt() != g || !it.HasCI {
				t.Fatalf("trial %d row %d: group %v, %v at W=4, CI %v", trial, i, g, parallel.Rows[i][0], it.HasCI)
			}
			assertTrialsEqual(t, "online grouped", trial,
				coverageTrialResult{serial.Float(i, 1), it.CI.Lo, it.CI.Hi},
				coverageTrialResult{parallel.Float(i, 1), pit.CI.Lo, pit.CI.Hi})
			if ev.GroupSizes[g] <= keep && (serial.Float(i, 1) != truth[g] || it.CI.Lo != truth[g] || it.CI.Hi != truth[g]) {
				t.Fatalf("trial %d: group %d, read whole (%d rows): %v in [%v, %v], exactly %v", trial, g,
					ev.GroupSizes[g], serial.Float(i, 1), it.CI.Lo, it.CI.Hi, truth[g])
			}
			if it.CI.Lo <= truth[g] && truth[g] <= it.CI.Hi {
				covered[g]++
			}
		}
	}
	var whole, thin, asserted int
	for g, n := range ev.GroupSizes {
		name := fmt.Sprintf("online grouped: group %d (%d rows)", g, n)
		switch {
		case n <= keep:
			whole++ // every trial was held to the exact answer above
		case float64(n-keep)*rate < minTailSample:
			thin++
			t.Logf("%s: thin tail, coverage %.3f, not asserted", name, float64(covered[g])/coverageTrials)
		default:
			asserted++
			checkCoverage(t, name, covered[g], coverageTrials)
		}
	}
	if whole == 0 || thin == 0 || asserted < 10 {
		t.Errorf("fixture has %d groups read whole, %d with a thin tail, %d asserted: want all three classes", whole, thin, asserted)
	}
}
