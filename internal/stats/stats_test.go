package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
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
	sums := make([]float64, trials)
	var mean float64
	for tr := range sums {
		var ht HTEstimator
		for _, x := range xs {
			if rng.Float64() < p {
				ht.Add(x, 1/p)
			}
		}
		sums[tr] = ht.Sum()
		mean += ht.Sum() / float64(trials)
	}
	var empVar float64
	for _, s := range sums {
		empVar += (s - mean) * (s - mean) / float64(trials-1)
	}
	// Unbiasedness: mean of estimates within 3 standard errors.
	se := math.Sqrt(empVar / float64(trials))
	if math.Abs(mean-trueSum) > 4*se {
		t.Errorf("HT sum biased: mean est %v, true %v, se %v", mean, trueSum, se)
	}
	// Variance estimate close to empirical variance across trials.
	var ht HTEstimator
	for _, x := range xs {
		if rng.Float64() < p {
			ht.Add(x, 1/p)
		}
	}
	ratio := ht.SumVariance() / empVar
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("variance estimate off: est %v vs empirical %v", ht.SumVariance(), empVar)
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
	iv := CLTInterval(ht.Sum(), ht.SumVariance(), ht.N(), 0.95)
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
	iv := CLTInterval(ht.Mean(), ht.MeanVariance(), ht.N(), 0.95)
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

func TestAllocateRules(t *testing.T) {
	approx(t, AllocateConfidence(0.95, 1), 0.95, 0, "k=1")
	// Boole: two events each at 97.5% give >= 95% jointly.
	c := AllocateConfidence(0.95, 2)
	approx(t, c, 0.975, 1e-12, "k=2")
}

func TestIntervalArithmetic(t *testing.T) {
	ix := Interval{Lo: 9, Hi: 11, Confidence: 0.975}
	iy := Interval{Lo: 1.9, Hi: 2.1, Confidence: 0.975}
	pr := CombineIntervalsProduct(ix, iy)
	if pr.Lo > 9*1.9 || pr.Hi < 11*2.1 {
		t.Errorf("product interval %+v", pr)
	}
	ra := CombineIntervalsRatio(ix, iy)
	if ra.Lo > 9/2.1 || ra.Hi < 11/1.9 {
		t.Errorf("ratio interval %+v", ra)
	}
	// Denominator straddling zero.
	bad := CombineIntervalsRatio(ix, Interval{Lo: -1, Hi: 1})
	if !math.IsInf(bad.Lo, -1) || !math.IsInf(bad.Hi, 1) {
		t.Error("ratio by zero-straddling interval must be unbounded")
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
		if CLTInterval(ht.Sum(), ht.SumVariance(), ht.N(), 0.95).Contains(trueSum) {
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
		if i, ok := sameHT(byRow, byRun); !ok {
			t.Fatalf("trial %d field %d: Add %+v, AddRun %+v (xs %v ws %v)", trial, i, byRow.State(), byRun.State(), xs, ws)
		}
	}
}

// sameHT reports the first field where a and b differ in their bits, any
// NaN matching any NaN: a NaN's payload depends on the operand order the
// compiler picked for each add.
func sameHT(a, b HTEstimator) (field int, ok bool) {
	x, y := a.State(), b.State()
	for i, f := range [][2]float64{{x.Sum, y.Sum}, {x.VarSum, y.VarSum}, {x.N, y.N}, {x.WTot, y.WTot}, {x.W2Tot, y.W2Tot}, {x.CovSN, y.CovSN}} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) && !(math.IsNaN(f[0]) && math.IsNaN(f[1])) {
			return i, false
		}
	}
	return 0, true
}

// checkUnitRun holds AddUnitRun(xs) to AddRun(xs, ones) and AddUnitCount
// to AddRun over len(xs) ones, both from the state s, and AddUnitTotals to
// AddRun per group (checkUnitTotals).
func checkUnitRun(t *testing.T, s HTState, xs []float64) {
	t.Helper()
	ones := make([]float64, len(xs))
	for i := range ones {
		ones[i] = 1
	}
	run, unit := HTFromState(s), HTFromState(s)
	run.AddRun(xs, ones)
	unit.AddUnitRun(xs)
	if i, ok := sameHT(unit, run); !ok {
		t.Fatalf("from %+v: field %d: AddUnitRun %+v, AddRun %+v (xs %v)", s, i, unit.State(), run.State(), xs)
	}
	run, unit = HTFromState(s), HTFromState(s)
	run.AddRun(ones, ones)
	unit.AddUnitCount(len(xs))
	if i, ok := sameHT(unit, run); !ok {
		t.Fatalf("from %+v: field %d: AddUnitCount(%d) %+v, AddRun %+v", s, i, len(xs), unit.State(), run.State())
	}
	checkUnitTotals(t, s, xs)
}

// checkUnitTotals folds xs in place into two groups, the odd rows into one
// from the state s and the even rows into one from zero, as the grouped
// scan does: a running total per group, then AddUnitTotals. It must leave
// each group as AddRun over its rows at unit weights leaves it, or refuse
// and leave both as they were; from two zero states a finite run must be
// taken.
func checkUnitTotals(t *testing.T, s HTState, xs []float64) {
	t.Helper()
	prior := [2]HTState{{}, s}
	hs := []HTEstimator{HTFromState(prior[0]), HTFromState(prior[1])}
	tot, cnt := []float64{hs[0].Sum(), hs[1].Sum()}, []int32{0, 0}
	var touched []int32
	var rows [2][]float64
	for i, x := range xs {
		g := i % 2
		if cnt[g] == 0 {
			touched = append(touched, int32(g))
		}
		cnt[g]++
		tot[g] += x
		rows[g] = append(rows[g], x)
	}
	took := AddUnitTotals(hs, touched, tot, cnt)
	for g, p := range prior {
		want := HTFromState(p)
		if took {
			ones := make([]float64, len(rows[g]))
			for i := range ones {
				ones[i] = 1
			}
			want.AddRun(rows[g], ones)
		}
		if i, ok := sameHT(hs[g], want); !ok {
			t.Fatalf("group %d from %+v (took %v): field %d: AddUnitTotals %+v, want %+v (rows %v)", g, p, took, i, hs[g].State(), want.State(), rows[g])
		}
	}
	if _, zero := sameHT(HTFromState(s), HTEstimator{}); !took && zero && tot[0]-tot[0] == 0 && tot[1]-tot[1] == 0 {
		t.Fatalf("AddUnitTotals refused finite totals %v from zero states", tot)
	}
}

// TestHTEstimatorUnitRunIsAddRun: the unit-weight paths leave every field
// as AddRun at unit weights does, on clean runs and on runs holding NaN,
// ±Inf or −0, from the prior states the shortcut must refuse — −0 in a
// variance sum, a NaN, counts that cross 2^53, a fractional weight total —
// as well as from zero and from a finite sum the run overflows.
func TestHTEstimatorUnitRunIsAddRun(t *testing.T) {
	negZero := math.Copysign(0, -1)
	const top = 1 << 53
	var weighted HTEstimator
	weighted.Add(2.5, 4)
	priors := []HTState{
		{},
		{VarSum: negZero},
		{W2Tot: negZero},
		{CovSN: negZero},
		{Sum: 3, VarSum: math.NaN(), N: 3, WTot: 3, W2Tot: math.NaN(), CovSN: math.NaN()},
		{Sum: top - 3, N: top - 3, WTot: top - 3},
		{Sum: 0.5, N: 7, WTot: 7.25},
		{N: 5, WTot: 1<<52 - 1.5}, // +1 thrice and +3 round apart
		{Sum: 1<<52 - 1.5, N: 5, WTot: 5},
		{Sum: math.MaxFloat64, N: 1, WTot: 1},
		weighted.State(),
	}
	hostile := []float64{math.NaN(), math.Inf(1), math.Inf(-1), negZero, math.MaxFloat64, 1 << 53}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, rng.Intn(40))
		if trial%50 == 0 {
			xs = make([]float64, 2500) // longer than the fallback's run of ones
		}
		for i := range xs {
			xs[i] = rng.NormFloat64() * 1e3
			if trial%3 == 0 && rng.Intn(8) == 0 {
				xs[i] = hostile[rng.Intn(len(hostile))]
			}
		}
		for _, s := range priors {
			checkUnitRun(t, s, xs)
		}
	}
}

// FuzzHTEstimatorUnitRun holds the unit-weight paths — a run, a count and
// the grouped totals — to AddRun from any prior state over any run, the
// run's values being the input bytes read eight at a time.
func FuzzHTEstimatorUnitRun(f *testing.F) {
	negZero := math.Copysign(0, -1)
	run := func(xs ...float64) []byte {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, run(1, 2.5, -3))
	f.Add(0.0, negZero, 0.0, 0.0, negZero, negZero, run(negZero, 4))
	f.Add(1.0, math.NaN(), 1.0, 1.0, 0.0, 0.0, run(1e300, 1e300))
	f.Add(float64(1<<53-2), 0.0, float64(1<<53-2), float64(1<<53-2), 0.0, 0.0, run(1, 1, 1, 1))
	f.Add(2.0, 3.0, 2.0, 2.5, 1.0, 0.5, run(math.Inf(1), math.NaN(), 7))
	f.Fuzz(func(t *testing.T, sum, varSum, n, wTot, w2Tot, covsn float64, raw []byte) {
		xs := make([]float64, len(raw)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkUnitRun(t, HTState{Sum: sum, VarSum: varSum, N: n, WTot: wTot, W2Tot: w2Tot, CovSN: covsn}, xs)
	})
}

// TestRelError pins the one relative error: zero truths give 0 or 1, and
// a non-finite ratio — NaN or infinite estimate or truth — gives 1.
func TestRelError(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct{ est, truth, want float64 }{
		{100, 100, 0}, {90, 100, 0.1}, {0, 0, 0}, {5, 0, 1}, {110, 100, 0.1}, {-90, -100, 0.1},
		{nan, 100, 1}, {100, nan, 1}, {nan, nan, 1}, {nan, 0, 1}, {inf, 100, 1}, {100, inf, 1}, {inf, inf, 1},
	}
	for _, c := range cases {
		// Written so that a NaN result fails too.
		if got := RelError(c.est, c.truth); !(math.Abs(got-c.want) <= 1e-9) {
			t.Errorf("RelError(%v, %v) = %v, want %v", c.est, c.truth, got, c.want)
		}
	}
}
