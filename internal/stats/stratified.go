package stats

// Stratified composition of per-stratum estimators.
//
// Sharded scatter-gather execution treats each shard as an independent
// stratum: the shard draws its own sample, forms its own Horvitz–Thompson
// estimate, and the gather step composes the per-shard estimates into a
// population-level answer. Because samples are drawn independently across
// shards (per-shard seeds, see internal/shard.DeriveSeed), the variance of
// a composed total is exactly the sum of the per-shard variances, and the
// variance of a composed mean is the population-weighted combination —
// no covariance terms appear.
//
// The gather path does not go through CombineTotals: merging the per-shard
// HT partial states (plain sums over sampled rows) *is* the stratified
// composition, losslessly — see exec.MergeAggPartials. CombineTotals is the
// reference algebra tests verify the HT merge against.

// Stratum is one independent stratum's (estimate, variance) pair with the
// sample size that produced it and the stratum's population size.
type Stratum struct {
	// Estimate is the stratum-level point estimate of a total.
	Estimate float64
	// Variance is the estimated variance of Estimate.
	Variance float64
	// N is the number of sampled observations behind the estimate.
	N float64
	// Pop is the stratum population size (rows in the shard).
	Pop float64
}

// CombineTotals composes independent per-stratum totals: the population
// total is the sum of stratum totals, and — with independent samples — its
// variance is the sum of stratum variances. The returned n is the combined
// sample size, which downstream CLT intervals use for the Student-t
// small-sample correction.
func CombineTotals(strata []Stratum) (est, variance, n float64) {
	for _, s := range strata {
		est += s.Estimate
		variance += s.Variance
		n += s.N
	}
	return est, variance, n
}

// ScalePopulation rescales the estimator as if the sampled population were
// 1/r of the full one: totals (Sum, Count) scale by r and their variances
// by r², while ratio estimates (Mean) and their delta-method variances are
// invariant — every term of MeanVariance's numerator picks up r² and the
// denominator wTot² does too. It is used when shards are lost mid-query:
// the surviving shards' merged HT state is scaled by total/covered
// population, which assumes covered and uncovered rows are exchangeable
// (hash sharding assigns rows to shards uniformly), so range-sharded
// groups must not extrapolate.
func (h *HTEstimator) ScalePopulation(r float64) {
	if r <= 0 || r == 1 {
		return
	}
	h.sum *= r
	h.varSum *= r * r
	h.wTot *= r
	h.w2Tot *= r * r
	h.covsn *= r * r
}
