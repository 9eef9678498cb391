package stats

import "math"

// Interval is a two-sided confidence interval around an estimate.
type Interval struct {
	Lo, Hi     float64
	Confidence float64
}

// Width returns Hi - Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// HalfWidth returns half the interval width.
func (iv Interval) HalfWidth() float64 { return iv.Width() / 2 }

// Contains reports whether x lies inside the interval (inclusive).
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// RelHalfWidth returns the half width relative to the estimate magnitude.
func (iv Interval) RelHalfWidth(estimate float64) float64 {
	if estimate == 0 {
		if iv.Width() == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return iv.HalfWidth() / math.Abs(estimate)
}

// RelError is |est-truth| / |truth|, the error every comparison of an
// estimate with the truth reports. Against a zero truth it is 0 for exact
// agreement and 1 otherwise, and a NaN or infinite ratio (a NaN or
// infinite estimate or truth) is 1, so a non-finite answer never reads as
// accurate.
func RelError(est, truth float64) float64 {
	if truth == 0 {
		if est == 0 {
			return 0
		}
		return 1
	}
	rel := math.Abs(est-truth) / math.Abs(truth)
	if math.IsNaN(rel) || math.IsInf(rel, 0) {
		return 1
	}
	return rel
}

// HTEstimator accumulates a Horvitz–Thompson estimate of a population SUM
// from a without-replacement sample where row i was included with
// probability 1/weight(i). For each sampled row call Add(x, w) with
// w = 1/π_i. The variance estimator
//
//	Var̂(Ŝ) = Σ_sampled w_i (w_i - 1) x_i²
//
// assumes independent inclusions (Poisson/Bernoulli sampling). The row
// samplers (uniform, distinct) match it; block, bi-level and universe
// samples do not — their rows are included together, a block or a key at a
// time — and for them it understates the variance. Rows included with certainty (w=1, e.g. rare strata kept whole by the
// distinct sampler) contribute zero variance, as they should.
type HTEstimator struct {
	sum    float64 // Σ w x  — the HT point estimate
	varSum float64 // Σ w (w-1) x²
	n      float64 // sampled rows
	wTot   float64 // Σ w — HT estimate of population size
	w2Tot  float64 // Σ w (w-1) — variance of the COUNT estimate
	covsn  float64 // Σ w (w-1) x — Cov(Ŝ, N̂) under independent inclusion
}

// Add accumulates one sampled row with value x and weight w = 1/π. Every
// product is rounded before it is summed (the float64 conversions forbid a
// fused multiply-add), so Add and AddRun agree to the bit on every
// architecture — a NaN being a NaN: which payload survives a sum of two
// is the compiler's choice of operand order.
func (h *HTEstimator) Add(x, w float64) {
	h.sum += float64(w * x)
	h.varSum += float64(w * (w - 1) * x * x)
	h.n++
	h.wTot += w
	h.w2Tot += float64(w * (w - 1))
	h.covsn += float64(w * (w - 1) * x)
}

// AddRun accumulates the rows (xs[i], ws[i]) in index order: exactly the
// six updates Add makes per row, in Add's order, with the accumulators held
// in registers across the run. A unit weight is not special-cased here —
// w·(w−1)·x² is NaN, not 0, for an infinite x; AddUnitRun and AddUnitCount
// are the unit-weight paths, and they answer what AddRun would.
func (h *HTEstimator) AddRun(xs, ws []float64) {
	ws = ws[:len(xs)]
	sum, varSum, n, wTot, w2Tot, covsn := h.sum, h.varSum, h.n, h.wTot, h.w2Tot, h.covsn
	for i, x := range xs {
		w := ws[i]
		sum += float64(w * x)
		varSum += float64(w * (w - 1) * x * x)
		n++
		wTot += w
		w2Tot += float64(w * (w - 1))
		covsn += float64(w * (w - 1) * x)
	}
	h.sum, h.varSum, h.n, h.wTot, h.w2Tot, h.covsn = sum, varSum, n, wTot, w2Tot, covsn
}

// AddUnitRun accumulates the rows xs at weight 1, leaving h bit for bit as
// AddRun(xs, ones) leaves it. At w = 1 and a finite x, AddRun adds x to
// sum, exact integers to n and wTot, and ±0 to varSum, w2Tot and covsn: one
// pass of sum += x in row order, n += len(xs) and wTot += len(xs) is the
// same float sequence whenever the variance sums are inert to ±0 and the
// counts stay exact integers. A run holding ±Inf or NaN — it leaves the
// running sum non-finite — and any other state go through AddRun.
func (h *HTEstimator) AddUnitRun(xs []float64) {
	sum := h.sum
	for _, x := range xs {
		sum += x
	}
	if h.unitTotal(sum, len(xs)) {
		h.commitUnit(sum, len(xs))
		return
	}
	for len(xs) > 0 {
		k := min(len(xs), len(unitWeights))
		h.AddRun(xs[:k], unitWeights)
		xs = xs[k:]
	}
}

// AddUnitTotals is AddUnitRun for several groups' rows folded at once, in
// place: for each group g listed in touched (once), cnt[g] unit-weight rows
// whose values, added in row order one at a time to hs[g].Sum(), ran to
// tot[g] — AddUnitRun's own loop over the group's rows. It commits every
// group's total when each meets AddUnitRun's conditions for doing so, and
// otherwise commits nothing and reports false: the caller then folds the
// rows with Add(x, 1), which is AddRun at unit weights.
func AddUnitTotals(hs []HTEstimator, touched []int32, tot []float64, cnt []int32) bool {
	for _, g := range touched {
		if !hs[g].unitTotal(tot[g], int(cnt[g])) {
			return false
		}
	}
	for _, g := range touched {
		hs[g].commitUnit(tot[g], int(cnt[g]))
	}
	return true
}

// unitTotal reports whether k unit-weight rows whose values ran h's sum to
// sum may be committed without AddRun's per-row updates: h's counts stay
// exact (unitExact) and sum is finite, which it is only if every value was.
func (h *HTEstimator) unitTotal(sum float64, k int) bool {
	return h.unitExact(k, h.n) && sum-sum == 0
}

// commitUnit commits k unit-weight rows that ran the sum to sum.
func (h *HTEstimator) commitUnit(sum float64, k int) {
	h.sum, h.n, h.wTot = sum, h.n+float64(k), h.wTot+float64(k)
}

// AddUnitCount accumulates k rows of value 1 at weight 1 — a COUNT's run —
// leaving h bit for bit as AddRun over k ones and k unit weights leaves it:
// sum, n and wTot each add k while all three stay exact integers, and any
// other state goes through AddRun.
func (h *HTEstimator) AddUnitCount(k int) {
	if h.unitExact(k, h.sum) {
		h.commitUnit(h.sum+float64(k), k)
		return
	}
	for k > 0 {
		m := min(k, len(unitWeights))
		h.AddRun(unitWeights[:m], unitWeights)
		k -= m
	}
}

// unitWeights is a read-only run of ones: the weights, and a COUNT's
// values, the unit paths hand AddRun when they cannot skip its updates.
var unitWeights = func() []float64 {
	ws := make([]float64, 1024)
	for i := range ws {
		ws[i] = 1
	}
	return ws
}()

// unitExact reports whether k unit-weight rows may skip AddRun's per-row
// updates: n, wTot and c are integers that k more unit steps keep below
// 2^53, where each step adds exactly, and varSum, w2Tot and covsn are
// neither NaN nor −0, the only values whose bits adding ±0 can change.
func (h *HTEstimator) unitExact(k int, c float64) bool {
	limit := float64(1<<53 - k)
	for _, v := range [...]float64{h.n, h.wTot, c} {
		if v != math.Trunc(v) || math.Abs(v) > limit {
			return false
		}
	}
	for _, v := range [...]float64{h.varSum, h.w2Tot, h.covsn} {
		if v != v || v == 0 && math.Signbit(v) {
			return false
		}
	}
	return true
}

// Merge folds another estimator's accumulations into h. Every field is a
// plain sum over sampled rows, so merging partial estimators in a fixed
// order reproduces the same float operation sequence on every run.
func (h *HTEstimator) Merge(o HTEstimator) {
	h.sum += o.sum
	h.varSum += o.varSum
	h.n += o.n
	h.wTot += o.wTot
	h.w2Tot += o.w2Tot
	h.covsn += o.covsn
}

// N returns the number of sampled rows observed.
func (h *HTEstimator) N() float64 { return h.n }

// Sum returns the HT point estimate of the population sum.
func (h *HTEstimator) Sum() float64 { return h.sum }

// Count returns the HT point estimate of the population row count.
func (h *HTEstimator) Count() float64 { return h.wTot }

// SumVariance returns the estimated variance of Sum().
func (h *HTEstimator) SumVariance() float64 { return h.varSum }

// Mean returns the ratio (Hájek) estimate of the population mean.
func (h *HTEstimator) Mean() float64 {
	if h.wTot == 0 {
		return 0
	}
	return h.sum / h.wTot
}

// MeanVariance estimates the variance of Mean() by the delta method for a
// ratio of two correlated HT estimators. With R = S/N:
//
//	Var(R) ≈ (Var(S) - 2R Cov(S,N) + R² Var(N)) / N²
//
// where, under independent inclusions, Cov(Ŝ, N̂) = Σ w(w-1) x.
func (h *HTEstimator) MeanVariance() float64 {
	if h.wTot == 0 {
		return 0
	}
	r := h.Mean()
	v := h.varSum - 2*r*h.covsn + r*r*h.w2Tot
	if v < 0 {
		v = 0
	}
	return v / (h.wTot * h.wTot)
}

// HTState is the exported accumulator state of an HTEstimator, for wire
// serialization of partial aggregation states. Every component is a plain
// sum over sampled rows, so State/HTFromState round-trip the estimator
// exactly: a deserialized estimator merges and finalizes bit-identically
// to the original.
type HTState struct {
	Sum    float64
	VarSum float64
	N      float64
	WTot   float64
	W2Tot  float64
	CovSN  float64
}

// State exports the accumulator for serialization.
func (h *HTEstimator) State() HTState {
	return HTState{Sum: h.sum, VarSum: h.varSum, N: h.n, WTot: h.wTot, W2Tot: h.w2Tot, CovSN: h.covsn}
}

// HTFromState reconstructs an estimator from an exported state.
func HTFromState(s HTState) HTEstimator {
	return HTEstimator{sum: s.Sum, varSum: s.VarSum, n: s.N, wTot: s.WTot, w2Tot: s.W2Tot, covsn: s.CovSN}
}

// SRSTotal estimates a population total from a simple random sample
// without replacement: the first k of pop rows in a random order, sum and
// sumsq being Σz and Σz² over them, where z is the row's contribution (its
// value when it qualifies, 0 otherwise):
//
//	Ŝ = pop·z̄,  Var(Ŝ) = pop²·(1−k/pop)·s_z²/k.
//
// It is online aggregation's estimator for SUM and COUNT; reading every
// row (k = pop) gives the exact total with variance 0.
func SRSTotal(sum, sumsq float64, k, pop int) (est, variance float64) {
	kk, nn := float64(k), float64(pop)
	zbar := sum / kk
	// s_z² over all k rows (zeros included for non-qualifying rows).
	sz2 := (sumsq - kk*zbar*zbar) / math.Max(kk-1, 1)
	return nn * zbar, nn * nn * srsFPC(k, pop) * sz2 / kk
}

// SRSMean estimates a population mean from the n qualifying rows among the
// first k of pop rows in a random order, sum and sumsq being Σx and Σx²
// over the n. One observation carries no variance information: its
// variance is reported as mean², which cltInterval turns into the widest
// interval it documents.
func SRSMean(sum, sumsq, n float64, k, pop int) (est, variance float64) {
	if n == 0 {
		return 0, 0
	}
	mean := sum / n
	if n < 2 {
		return mean, mean * mean
	}
	s2 := (sumsq - sum*sum/n) / (n - 1)
	return mean, s2 / n * srsFPC(k, pop)
}

// srsFPC is the finite-population correction 1 − k/pop, floored at 0.
func srsFPC(k, pop int) float64 {
	return math.Max(1-float64(k)/math.Max(float64(pop), 1), 0)
}

// CLTInterval builds an estimate ± t·σ interval from an estimate, its
// variance, and the contributing sample size, using Student's t for small
// samples and the normal for large ones.
func CLTInterval(est, variance, n, confidence float64) Interval {
	return cltInterval(est, variance, n, confidence)
}

// cltInterval builds an estimate ± t·σ interval, using Student's t for
// small samples and the normal for large ones.
func cltInterval(est, variance, n, confidence float64) Interval {
	if variance < 0 {
		variance = 0
	}
	sd := math.Sqrt(variance)
	var q float64
	p := 1 - (1-confidence)/2
	if n >= 2 && n < 200 {
		q = StudentTQuantile(p, n-1)
	} else {
		q = NormalQuantile(p)
	}
	if n < 2 {
		// One observation: no variance information; widen maximally.
		q = NormalQuantile(p)
		if sd == 0 && est != 0 {
			sd = math.Abs(est)
		}
	}
	return Interval{Lo: est - q*sd, Hi: est + q*sd, Confidence: confidence}
}
