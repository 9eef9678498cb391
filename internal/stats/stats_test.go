package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %v, want %v (tol %v)", msg, got, want, tol)
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, z float64 }{
		{0.5, 0},
		{0.975, 1.959963985},
		{0.995, 2.575829304},
		{0.841344746, 1.0},
		{0.025, -1.959963985},
	}
	for _, c := range cases {
		approx(t, NormalQuantile(c.p), c.z, 1e-6, "NormalQuantile")
	}
}

func TestNormalQuantileCDFInverse(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999} {
		z := NormalQuantile(p)
		approx(t, NormalCDF(z), p, 1e-9, "CDF(Quantile(p))")
	}
}

func TestStudentTKnownValues(t *testing.T) {
	// Classical t-table values.
	cases := []struct{ p, df, want float64 }{
		{0.975, 1, 12.7062},
		{0.975, 5, 2.5706},
		{0.975, 10, 2.2281},
		{0.975, 30, 2.0423},
		{0.95, 10, 1.8125},
		{0.99, 20, 2.5280},
	}
	for _, c := range cases {
		approx(t, StudentTQuantile(c.p, c.df), c.want, 2e-3, "StudentTQuantile")
	}
	// Large df converges to normal.
	approx(t, StudentTQuantile(0.975, 1e7), 1.959964, 1e-4, "t->normal")
}

func TestStudentTCDFSymmetry(t *testing.T) {
	for _, df := range []float64{1, 3, 17, 100} {
		for _, x := range []float64{0.3, 1, 2.5} {
			l := StudentTCDF(-x, df)
			r := StudentTCDF(x, df)
			approx(t, l+r, 1, 1e-10, "t CDF symmetry")
		}
	}
	approx(t, StudentTCDF(0, 7), 0.5, 1e-12, "t CDF at 0")
}

func TestChiSquareKnownValues(t *testing.T) {
	cases := []struct{ p, df, want float64 }{
		{0.95, 1, 3.8415},
		{0.95, 10, 18.307},
		{0.05, 10, 3.9403},
		{0.99, 5, 15.086},
	}
	for _, c := range cases {
		approx(t, ChiSquareQuantile(c.p, c.df), c.want, 2e-3, "ChiSquareQuantile")
	}
}

func TestMomentsAgainstDirect(t *testing.T) {
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var m Moments
	for _, v := range vals {
		m.Add(v)
	}
	approx(t, m.Mean(), 5, 1e-12, "mean")
	approx(t, m.Variance(), 4, 1e-12, "population variance")
	approx(t, m.SampleVariance(), 4*8.0/7.0, 1e-12, "sample variance")
}

func TestMomentsWeighted(t *testing.T) {
	// Weight 2 on a value is the same as adding it twice, for mean and
	// population variance.
	var a, b Moments
	a.AddWeighted(1, 2)
	a.AddWeighted(4, 1)
	b.Add(1)
	b.Add(1)
	b.Add(4)
	approx(t, a.Mean(), b.Mean(), 1e-12, "weighted mean")
	approx(t, a.Variance(), b.Variance(), 1e-12, "weighted variance")
}

func TestMomentsMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var all, l, r Moments
	for i := 0; i < 1000; i++ {
		v := rng.NormFloat64()*3 + 10
		all.Add(v)
		if i%2 == 0 {
			l.Add(v)
		} else {
			r.Add(v)
		}
	}
	l.Merge(r)
	approx(t, l.Mean(), all.Mean(), 1e-9, "merged mean")
	approx(t, l.Variance(), all.Variance(), 1e-9, "merged variance")
	approx(t, l.Count(), all.Count(), 0, "merged count")
}

// The HT estimator over a Bernoulli(p) sample must be unbiased and its
// variance estimate must match the closed form (1-p)/p * Σx².
func TestHTEstimatorUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 20000
	xs := make([]float64, n)
	var trueSum float64
	for i := range xs {
		xs[i] = rng.Float64()*10 + 1
		trueSum += xs[i]
	}
	p := 0.05
	trials := 300
	var est Moments
	for tr := 0; tr < trials; tr++ {
		var ht HTEstimator
		for _, x := range xs {
			if rng.Float64() < p {
				ht.Add(x, 1/p)
			}
		}
		est.Add(ht.Sum())
	}
	// Unbiasedness: mean of estimates within 3 standard errors.
	se := math.Sqrt(est.SampleVariance() / float64(trials))
	if math.Abs(est.Mean()-trueSum) > 4*se {
		t.Errorf("HT sum biased: mean est %v, true %v, se %v", est.Mean(), trueSum, se)
	}
	// Variance estimate close to empirical variance across trials.
	var ht HTEstimator
	for _, x := range xs {
		if rng.Float64() < p {
			ht.Add(x, 1/p)
		}
	}
	ratio := ht.SumVariance() / est.SampleVariance()
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("variance estimate off: est %v vs empirical %v", ht.SumVariance(), est.SampleVariance())
	}
}

func TestHTWeightOneIsExact(t *testing.T) {
	var ht HTEstimator
	for _, x := range []float64{1, 2, 3} {
		ht.Add(x, 1)
	}
	if ht.Sum() != 6 || ht.SumVariance() != 0 || ht.Count() != 3 {
		t.Errorf("exact HT: sum %v var %v count %v", ht.Sum(), ht.SumVariance(), ht.Count())
	}
	iv := ht.SumInterval(0.95)
	if iv.Lo != 6 || iv.Hi != 6 {
		t.Errorf("interval should be degenerate: %+v", iv)
	}
}

func TestHTMeanRatioEstimator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ht HTEstimator
	var sum, n float64
	for i := 0; i < 50000; i++ {
		x := rng.Float64() * 4
		sum += x
		n++
		if rng.Float64() < 0.1 {
			ht.Add(x, 10)
		}
	}
	trueMean := sum / n
	if math.Abs(ht.Mean()-trueMean) > 0.1 {
		t.Errorf("HT mean %v vs true %v", ht.Mean(), trueMean)
	}
	iv := ht.MeanInterval(0.95)
	if !iv.Contains(trueMean) {
		t.Logf("mean interval %v does not contain %v (5%% expected failure rate)", iv, trueMean)
	}
	if iv.Width() <= 0 {
		t.Error("mean interval must have positive width")
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{Lo: 8, Hi: 12, Confidence: 0.95}
	if iv.Width() != 4 || iv.HalfWidth() != 2 {
		t.Error("width helpers broken")
	}
	if !iv.Contains(10) || iv.Contains(13) {
		t.Error("contains broken")
	}
	approx(t, iv.RelHalfWidth(10), 0.2, 1e-12, "rel half width")
	if (Interval{}).RelHalfWidth(0) != 0 {
		t.Error("degenerate zero interval has zero relative width")
	}
	zero := Interval{Lo: -1, Hi: 1}
	if !math.IsInf(zero.RelHalfWidth(0), 1) {
		t.Error("nonzero interval around zero estimate has infinite relative width")
	}
}

func TestCoverageFormulas(t *testing.T) {
	// (1-p)^m basics.
	approx(t, GroupMissProbRow(0.5, 1), 0.5, 1e-12, "miss prob")
	approx(t, GroupMissProbRow(0.1, 10), math.Pow(0.9, 10), 1e-12, "miss prob 10")
	if GroupMissProbRow(1, 5) != 0 || GroupMissProbRow(0, 5) != 1 {
		t.Error("edge rates")
	}
	// Required rate inverts the miss probability.
	p := RequiredRateForCoverage(100, 0.01)
	approx(t, GroupMissProbRow(p, 100), 0.01, 1e-9, "rate inversion")
	// Block bound is never smaller than the row bound for b >= 1 rows...
	// the block miss probability uses fewer units so it is larger.
	if GroupMissProbBlock(0.1, 100, 10) < GroupMissProbRow(0.1, 100) {
		t.Error("block miss prob must exceed row miss prob for the same rate")
	}
}

func TestRequiredSampleSize(t *testing.T) {
	// cv=1, 1% error, 95% confidence: n = (1.96/0.01)^2 ≈ 38416.
	n := RequiredSampleSizeForRelError(1, 0.01, 0.95)
	if n < 38000 || n > 39000 {
		t.Errorf("n = %v", n)
	}
	if !math.IsInf(RequiredSampleSizeForRelError(1, 0, 0.95), 1) {
		t.Error("zero error requires infinite sample")
	}
}

func TestSampleSizeLowerBound(t *testing.T) {
	lb := SampleSizeLowerBound(10000, 0.1, 0.05)
	if lb >= 1000 || lb < 900 {
		t.Errorf("lower bound = %v, want slightly under 1000", lb)
	}
	if SampleSizeLowerBound(10, 0.001, 0.05) != 0 {
		t.Error("tiny expected size clamps to 0")
	}
}

func TestPropagationRules(t *testing.T) {
	approx(t, PropagateProduct(0.01, 0.02), 0.0302, 1e-12, "product")
	approx(t, PropagateRatio(0.01, 0.02), 0.03/0.98, 1e-12, "ratio")
	if !math.IsInf(PropagateRatio(0.1, 1), 1) {
		t.Error("ratio blows up at e2=1")
	}
	approx(t, PropagateSum(0.01, 0.02), 0.02, 1e-12, "sum")
}

// Property: the product rule is a true upper bound over random positive
// quantities and estimate errors.
func TestPropagateProductIsBound(t *testing.T) {
	f := func(xRaw, yRaw, e1Raw, e2Raw uint16) bool {
		x := 1 + float64(xRaw%1000)
		y := 1 + float64(yRaw%1000)
		e1 := float64(e1Raw%100) / 500 // up to 20%
		e2 := float64(e2Raw%100) / 500
		// Worst-case estimates at the edge of the error bounds.
		for _, sx := range []float64{1 - e1, 1 + e1} {
			for _, sy := range []float64{1 - e2, 1 + e2} {
				est := (x * sx) * (y * sy)
				rel := math.Abs(est-x*y) / (x * y)
				if rel > PropagateProduct(e1, e2)+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllocateRules(t *testing.T) {
	// Two-way product split keeps the composite under budget.
	e := AllocateRelError(0.05, 2)
	if PropagateProduct(e, e) > 0.05+1e-12 {
		t.Errorf("allocated %v breaks budget", e)
	}
	approx(t, AllocateConfidence(0.95, 1), 0.95, 0, "k=1")
	// Boole: two events each at 97.5% give >= 95% jointly.
	c := AllocateConfidence(0.95, 2)
	approx(t, c, 0.975, 1e-12, "k=2")
}

func TestIntervalArithmetic(t *testing.T) {
	ix := Interval{Lo: 9, Hi: 11, Confidence: 0.975}
	iy := Interval{Lo: 1.9, Hi: 2.1, Confidence: 0.975}
	pr := CombineIntervalsProduct(10, 2, ix, iy)
	if pr.Lo > 9*1.9 || pr.Hi < 11*2.1 {
		t.Errorf("product interval %+v", pr)
	}
	ra := CombineIntervalsRatio(10, 2, ix, iy)
	if ra.Lo > 9/2.1 || ra.Hi < 11/1.9 {
		t.Errorf("ratio interval %+v", ra)
	}
	// Denominator straddling zero.
	bad := CombineIntervalsRatio(10, 0, ix, Interval{Lo: -1, Hi: 1})
	if !math.IsInf(bad.Lo, -1) || !math.IsInf(bad.Hi, 1) {
		t.Error("ratio by zero-straddling interval must be unbounded")
	}
}

func TestBootstrapCoversMean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([]float64, 500)
	for i := range data {
		data[i] = rng.NormFloat64()*2 + 7
	}
	iv := Bootstrap(rng, data, Mean, 500, 0.95)
	if !iv.Contains(7) {
		t.Logf("bootstrap interval %+v may occasionally miss 7", iv)
	}
	if iv.Width() <= 0 || iv.Width() > 2 {
		t.Errorf("bootstrap width %v implausible", iv.Width())
	}
}

func TestBootstrapWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	vals := []float64{10, 20, 30}
	ws := []float64{2, 2, 2}
	iv := BootstrapWeighted(rng, vals, ws, HTSum, 300, 0.9)
	if iv.Lo < 3*10*2-1e-9 && iv.Hi > 0 {
		// The HT sum of resamples of this tiny set ranges in [60, 180].
		if iv.Lo < 60-1e9 || iv.Hi > 180+1e-9 {
			t.Errorf("weighted bootstrap out of range: %+v", iv)
		}
	}
}

func TestBlockDesignEffect(t *testing.T) {
	// Homogeneous blocks (within-variance 0): block sampling needs b× the
	// rows of row sampling.
	deff := BlockDesignEffect(4, 0, 10)
	approx(t, deff, 10, 1e-12, "homogeneous blocks")
	// Fully heterogeneous blocks (within == total variance): block
	// sampling is as efficient per row as row sampling.
	deff = BlockDesignEffect(4, 4, 10)
	approx(t, deff, 1, 1e-12, "heterogeneous blocks")
	if BlockDesignEffect(0, 0, 10) != 1 {
		t.Error("degenerate variance returns 1")
	}
}

// Empirical CI coverage: nominal 95% CLT intervals over Bernoulli samples
// of a well-behaved population should cover the truth ~95% of the time
// (within Monte-Carlo slack).
func TestCLTCoverageEmpirical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 5000
	xs := make([]float64, n)
	var trueSum float64
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 5
		trueSum += xs[i]
	}
	trials := 400
	covered := 0
	for tr := 0; tr < trials; tr++ {
		var ht HTEstimator
		for _, x := range xs {
			if rng.Float64() < 0.1 {
				ht.Add(x, 10)
			}
		}
		if ht.SumInterval(0.95).Contains(trueSum) {
			covered++
		}
	}
	rate := float64(covered) / float64(trials)
	if rate < 0.90 {
		t.Errorf("95%% CI coverage = %v, badly undercovering", rate)
	}
}

// TestSRSEstimators: the without-replacement prefix estimators. The pinned
// rows are the outputs of the online-aggregation engine's private
// olaEstimate on the same inputs, recorded before it moved here.
func TestSRSEstimators(t *testing.T) {
	for _, c := range []struct {
		name          string
		mean          bool
		sum, sumsq, n float64
		k, pop        int
		est, variance float64
	}{
		{"total pinned", false, 1234.5, 98765.25, 40, 512, 4000, 0x1.2d644p+13, 0x1.37c628aeeef78p+22},
		{"total pinned, negative", false, -17.25, 301.5, 3, 100, 100000, -0x1.0d88p+14, 0x1.1f487d8f45d18p+28},
		{"count pinned", false, 37, 37, 37, 1000, 250000, 0x1.211p+13, 0x1.0f06dp+21},
		{"count of nothing", false, 0, 0, 0, 4096, 250000, 0, 0},
		{"total from one row read", false, 5, 25, 1, 1, 10, 50, 0},
		{"mean pinned", true, 1234.5, 98765.25, 40, 512, 4000, 0x1.edccccccccccdp+04, 0x1.0f489ce212f14p+05},
		{"mean of one observation", true, 7.5, 56.25, 1, 512, 4000, 7.5, 56.25},
		{"mean of nothing", true, 0, 0, 0, 512, 4000, 0, 0},
		{"mean pinned, whole table", true, 25.5, 130.75, 5, 4000, 4000, 0x1.4666666666666p+02, 0},
		{"total, whole table", false, 1234.5, 98765.25, 40, 4000, 4000, 1234.5, 0},
		{"total, all-equal values", false, 12 * 2.5, 12 * 6.25, 12, 12, 96, 240, 0},
		{"mean, all-equal values", true, 12 * 2.5, 12 * 6.25, 12, 40, 96, 2.5, 0},
	} {
		est, variance := SRSTotal(c.sum, c.sumsq, c.k, c.pop)
		if c.mean {
			est, variance = SRSMean(c.sum, c.sumsq, c.n, c.k, c.pop)
		}
		if est != c.est || variance != c.variance {
			t.Errorf("%s: (%v, %v), want (%v, %v)", c.name, est, variance, c.est, c.variance)
		}
	}
	// One observation carries no spread: the interval is the widest
	// cltInterval documents, estimate ± z·|estimate|.
	est, variance := SRSMean(7.5, 56.25, 1, 512, 4000)
	iv := CLTInterval(est, variance, 1, 0.95)
	approx(t, iv.HalfWidth(), NormalQuantile(0.975)*7.5, 1e-12, "one-observation half width")
	// More of the table read, same moments per row: a narrower interval.
	_, few := SRSTotal(100, 400, 50, 1000)
	_, many := SRSTotal(1000, 4000, 500, 1000)
	if !(many < few && many > 0) {
		t.Errorf("variance %v at 50%% read vs %v at 5%%", many, few)
	}
}

// TestHTEstimatorAddRunIsAdd: AddRun over a run equals Add row by row, to
// the bit, on ordinary and hostile values and weights — an infinite x at
// unit weight makes w·(w−1)·x² a NaN in both, not a 0 in one.
func TestHTEstimatorAddRunIsAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	hostile := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.MaxFloat64, 1 << 53}
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40)
		xs, ws := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ws[i] = rng.NormFloat64()*1e3, 1
			if rng.Intn(3) == 0 {
				ws[i] = 1 / (0.01 + rng.Float64())
			}
			if rng.Intn(8) == 0 {
				xs[i] = hostile[rng.Intn(len(hostile))]
			}
		}
		var byRow, byRun HTEstimator
		byRun.Add(2.5, 4) // a run continues whatever came before
		byRow.Add(2.5, 4)
		for i := range xs {
			byRow.Add(xs[i], ws[i])
		}
		byRun.AddRun(xs, ws)
		a, b := byRow.State(), byRun.State()
		for i, f := range [][2]float64{{a.Sum, b.Sum}, {a.VarSum, b.VarSum}, {a.N, b.N}, {a.WTot, b.WTot}, {a.W2Tot, b.W2Tot}, {a.CovSN, b.CovSN}} {
			// A NaN's payload depends on the operand order the compiler
			// picked for each add; any NaN equals any NaN here.
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) && !(math.IsNaN(f[0]) && math.IsNaN(f[1])) {
				t.Fatalf("trial %d field %d: Add %v, AddRun %v (xs %v ws %v)", trial, i, f[0], f[1], xs, ws)
			}
		}
	}
}
