package stats

import (
	"math"
	"testing"
)

func TestCombineTotals(t *testing.T) {
	est, v, n := CombineTotals([]Stratum{
		{Estimate: 100, Variance: 4, N: 10, Pop: 50},
		{Estimate: 200, Variance: 9, N: 20, Pop: 100},
		{Estimate: -50, Variance: 1, N: 5, Pop: 25},
	})
	if est != 250 || v != 14 || n != 35 {
		t.Fatalf("got est=%v v=%v n=%v", est, v, n)
	}
	if est, v, n = CombineTotals(nil); est != 0 || v != 0 || n != 0 {
		t.Fatalf("empty strata: got est=%v v=%v n=%v", est, v, n)
	}
}

// TestMergeIsStratifiedComposition verifies the central claim of the
// sharded gather path: merging per-stratum HT partial states reproduces —
// bit for bit — the stratified composition of the per-stratum estimates,
// because both are the same plain sums in the same order.
func TestMergeIsStratifiedComposition(t *testing.T) {
	var s1, s2 HTEstimator
	for i := 0; i < 40; i++ {
		s1.Add(float64(i)*1.25, 10)
	}
	for i := 0; i < 25; i++ {
		s2.Add(float64(i)*-0.75, 4)
	}

	wantEst, wantVar, wantN := CombineTotals([]Stratum{
		{Estimate: s1.Sum(), Variance: s1.SumVariance(), N: s1.N()},
		{Estimate: s2.Sum(), Variance: s2.SumVariance(), N: s2.N()},
	})

	merged := s1 // copy
	merged.Merge(s2)
	if math.Float64bits(merged.Sum()) != math.Float64bits(wantEst) {
		t.Fatalf("merged sum %v != composed %v", merged.Sum(), wantEst)
	}
	if math.Float64bits(merged.SumVariance()) != math.Float64bits(wantVar) {
		t.Fatalf("merged variance %v != composed %v", merged.SumVariance(), wantVar)
	}
	if merged.N() != wantN {
		t.Fatalf("merged n %v != composed %v", merged.N(), wantN)
	}
}

// TestScalePopulationInvariants: scaling by r multiplies totals by r and
// their variances by r², and leaves the Hájek mean and its delta-method
// variance untouched (bit-for-bit when r is a power of two).
func TestScalePopulationInvariants(t *testing.T) {
	build := func() HTEstimator {
		var h HTEstimator
		for i := 0; i < 100; i++ {
			h.Add(math.Sin(float64(i))*10+5, 8)
		}
		return h
	}
	orig := build()
	scaled := build()
	scaled.ScalePopulation(2)

	if math.Float64bits(scaled.Sum()) != math.Float64bits(2*orig.Sum()) {
		t.Fatalf("sum: %v != 2·%v", scaled.Sum(), orig.Sum())
	}
	if math.Float64bits(scaled.SumVariance()) != math.Float64bits(4*orig.SumVariance()) {
		t.Fatalf("sum variance: %v != 4·%v", scaled.SumVariance(), orig.SumVariance())
	}
	if math.Float64bits(scaled.Count()) != math.Float64bits(2*orig.Count()) {
		t.Fatalf("count: %v != 2·%v", scaled.Count(), orig.Count())
	}
	if math.Float64bits(scaled.Mean()) != math.Float64bits(orig.Mean()) {
		t.Fatalf("mean not invariant: %v != %v", scaled.Mean(), orig.Mean())
	}
	if math.Float64bits(scaled.MeanVariance()) != math.Float64bits(orig.MeanVariance()) {
		t.Fatalf("mean variance not invariant: %v != %v", scaled.MeanVariance(), orig.MeanVariance())
	}
	// n is a sample-size fact, not a population estimate: unchanged.
	if scaled.N() != orig.N() {
		t.Fatalf("n changed: %v != %v", scaled.N(), orig.N())
	}

	// Non-dyadic ratios hold to rounding error.
	frac := build()
	r := 4.0 / 3.0
	frac.ScalePopulation(r)
	if math.Abs(frac.Sum()-r*orig.Sum()) > 1e-9*math.Abs(orig.Sum()) {
		t.Fatalf("sum: %v !≈ %v·%v", frac.Sum(), r, orig.Sum())
	}
	if math.Abs(frac.Mean()-orig.Mean()) > 1e-12*math.Abs(orig.Mean()) {
		t.Fatalf("mean: %v !≈ %v", frac.Mean(), orig.Mean())
	}

	// Guard values are no-ops.
	noop := build()
	noop.ScalePopulation(1)
	noop.ScalePopulation(0)
	noop.ScalePopulation(-3)
	if math.Float64bits(noop.Sum()) != math.Float64bits(orig.Sum()) {
		t.Fatalf("guarded scale changed the estimator")
	}
}
