package contract

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestVarianceUpperBoundInflates(t *testing.T) {
	v := 4.0
	ub := VarianceUpperBound(v, 20, 0.9)
	if ub <= v {
		t.Fatalf("upper bound %g not above sample variance %g at n=20", ub, v)
	}
	// More pilot data → less inflation.
	ub2 := VarianceUpperBound(v, 2000, 0.9)
	if ub2 >= ub {
		t.Fatalf("bound did not tighten with n: n=20 %g vs n=2000 %g", ub, ub2)
	}
	if ub2 > 1.1*v {
		t.Fatalf("bound at n=2000 should be within 10%% of s²: %g vs %g", ub2, v)
	}
	// Degenerate inputs pass through.
	if got := VarianceUpperBound(v, 1, 0.9); got != v {
		t.Fatalf("df<1 should pass through: %g", got)
	}
	if got := VarianceUpperBound(0, 50, 0.9); got != 0 {
		t.Fatalf("zero variance should pass through: %g", got)
	}
}

// TestRequiredRateMatchesClassicBound checks the rate transform against
// the textbook FPC-corrected sample size: for a population of N rows
// with cv = σ/μ, the sized row count rate·N must equal n₀/(1+n₀/N) with
// n₀ = (z·cv/e)² — the PilotDB bound with finite-population correction.
func TestRequiredRateMatchesClassicBound(t *testing.T) {
	const (
		n       = 100000.0 // population rows
		mean    = 10.0
		sigma   = 25.0
		pilot   = 0.01
		relErr  = 0.02
		conf    = 0.95
		varConf = 0.9
	)
	// Bernoulli HT variance at the pilot rate for a SUM over the
	// population: Var = C·(1-r)/r with C = N·σ² (+ the mean² term for
	// sampling counts is omitted — cv is defined on the value column).
	c := n * sigma * sigma
	e := Estimate{
		Value:    n * mean,
		Variance: c * (1 - pilot) / pilot,
		N:        n * pilot,
	}
	rate, reason := RequiredRate(e, pilot, relErr, conf, varConf)
	if reason != "" {
		t.Fatalf("unexpected sizing failure: %s", reason)
	}
	// Expected: classic bound on the chi-square-inflated variance.
	cvUB := math.Sqrt(VarianceUpperBound(c, e.N, varConf)/n) / mean
	n0 := stats.RequiredSampleSizeForRelError(cvUB, relErr, conf)
	want := n0 / (1 + n0/n)
	got := rate * n
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("sized rows %.3f, classic FPC bound %.3f", got, want)
	}
	if rate <= pilot || rate >= 1 {
		t.Fatalf("rate %g out of expected range (pilot %g)", rate, pilot)
	}

	// Tighter target → strictly larger rate.
	r2, _ := RequiredRate(e, pilot, relErr/2, conf, varConf)
	if r2 <= rate {
		t.Fatalf("halving the target should raise the rate: %g vs %g", r2, rate)
	}
	// Higher confidence → strictly larger rate.
	r3, _ := RequiredRate(e, pilot, relErr, 0.99, varConf)
	if r3 <= rate {
		t.Fatalf("raising confidence should raise the rate: %g vs %g", r3, rate)
	}
}

func TestRequiredRateDegenerate(t *testing.T) {
	good := Estimate{Value: 100, Variance: 10, N: 50}
	if _, reason := RequiredRate(Estimate{Value: 0, Variance: 10, N: 50}, 0.1, 0.05, 0.95, 0.9); reason == "" {
		t.Fatal("zero estimate should be unsizable")
	}
	if _, reason := RequiredRate(Estimate{Value: 5, Variance: 10, N: 1}, 0.1, 0.05, 0.95, 0.9); reason == "" {
		t.Fatal("n<2 should be unsizable")
	}
	if _, reason := RequiredRate(good, 0, 0.05, 0.95, 0.9); reason == "" {
		t.Fatal("unknown pilot fraction should be unsizable")
	}
	if r, reason := RequiredRate(good, 1, 0.05, 0.95, 0.9); reason != "" || r != 1 {
		t.Fatalf("exhaustive pilot should size to 1: %g %q", r, reason)
	}
	// Zero spread: any rate works; no reason, rate 0 (engine clamps up).
	if r, reason := RequiredRate(Estimate{Value: 5, Variance: 0, N: 50}, 0.1, 0.05, 0.95, 0.9); reason != "" || r != 0 {
		t.Fatalf("zero-variance pilot: got %g %q", r, reason)
	}
}

func TestSizeBindingAndBudget(t *testing.T) {
	noisy := Estimate{Value: 1000, Variance: 4e6, N: 400}
	quiet := Estimate{Value: 1000, Variance: 100, N: 400}
	s := Size([]Estimate{quiet, noisy}, 0.01, 0.05, 0.95, 1, 0.9)
	if !s.Feasible {
		t.Fatalf("expected feasible: %+v", s)
	}
	only := Size([]Estimate{noisy}, 0.01, 0.05, 0.95, 1, 0.9)
	if s.RequiredRate < only.RequiredRate {
		t.Fatalf("binding estimate must dominate: joint %g < solo %g", s.RequiredRate, only.RequiredRate)
	}
	// Bonferroni across two estimates makes the joint requirement
	// strictly larger than the noisy estimate alone.
	if s.RequiredRate <= only.RequiredRate {
		t.Fatalf("confidence split should raise the joint rate: %g vs %g", s.RequiredRate, only.RequiredRate)
	}

	tight := Size([]Estimate{noisy}, 0.01, 0.05, 0.95, only.RequiredRate/2, 0.9)
	if tight.Feasible {
		t.Fatalf("expected infeasible under half budget: %+v", tight)
	}
	if tight.Rate != only.RequiredRate/2 {
		t.Fatalf("infeasible rate should fall back to budget: %g", tight.Rate)
	}
	if tight.Reason == "" {
		t.Fatal("infeasible sizing must carry a reason")
	}

	bad := Size([]Estimate{{Value: 0, Variance: 1, N: 50}}, 0.01, 0.05, 0.95, 0.5, 0.9)
	if bad.Feasible || bad.Reason == "" || bad.Rate != 0.5 {
		t.Fatalf("unsizable estimate: %+v", bad)
	}
	empty := Size(nil, 0.01, 0.05, 0.95, 1, 0.9)
	if empty.Feasible {
		t.Fatalf("no estimates should be infeasible: %+v", empty)
	}
}

func TestAllocateShards(t *testing.T) {
	strata := []ShardStratum{
		{Rows: 1000, StdDev: 1},
		{Rows: 1000, StdDev: 3},
	}
	rates := AllocateShards(strata, 400)
	if len(rates) != 2 {
		t.Fatalf("want 2 rates, got %v", rates)
	}
	if rates[1] <= rates[0] {
		t.Fatalf("higher-variance shard should get the larger fraction: %v", rates)
	}
	var total float64
	for i, r := range rates {
		if r < 0 || r > 1 {
			t.Fatalf("rate %d out of [0,1]: %v", i, rates)
		}
		total += r * strata[i].Rows
	}
	if total > 401 {
		t.Fatalf("allocation exceeds budget: %g rows", total)
	}
	// Neyman beats proportional: stratified variance at the returned
	// allocation must not exceed the proportional split's.
	sizes := []float64{1000, 1000}
	stddevs := []float64{1, 3}
	neyman := []float64{rates[0] * 1000, rates[1] * 1000}
	prop := []float64{200, 200}
	if v, p := stats.StratifiedTotalVariance(sizes, stddevs, neyman), stats.StratifiedTotalVariance(sizes, stddevs, prop); v > p+1e-9 {
		t.Fatalf("Neyman allocation variance %g exceeds proportional %g", v, p)
	}
}

func TestConcludeVerdicts(t *testing.T) {
	s := &Summary{TargetRelError: 0.05}
	s.Conclude(0.03, false)
	if s.Verdict != VerdictMet {
		t.Fatalf("want met, got %s", s.Verdict)
	}
	s = &Summary{TargetRelError: 0.05}
	s.Conclude(0.08, false)
	if s.Verdict != VerdictMissed || s.Reason == "" {
		t.Fatalf("want missed with reason, got %s %q", s.Verdict, s.Reason)
	}
	// Degraded stage two can never certify, even if the width squeaks in.
	s = &Summary{TargetRelError: 0.05}
	s.Conclude(0.01, true)
	if s.Verdict != VerdictMissed {
		t.Fatalf("degraded run must not report met: %s", s.Verdict)
	}
	s = &Summary{TargetRelError: 0.05, Infeasible: true}
	s.Conclude(0.01, false)
	if s.Verdict != VerdictInfeasible {
		t.Fatalf("infeasible sticks: %s", s.Verdict)
	}
}
