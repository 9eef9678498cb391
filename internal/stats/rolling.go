package stats

import (
	"math"
	"sort"
)

// WilsonInterval returns the Wilson score interval for a binomial
// proportion: successes out of n trials at the given confidence. Unlike
// the Wald (normal-approximation) interval it behaves sensibly at the
// extremes — n small, or the observed proportion at 0 or 1 — which is
// exactly where an empirical CI-coverage estimate lives (coverage near
// 0.95 with a few dozen audits). n <= 0 returns the vacuous [0, 1].
func WilsonInterval(successes, n int, confidence float64) Interval {
	if n <= 0 {
		return Interval{Lo: 0, Hi: 1, Confidence: confidence}
	}
	if confidence <= 0 || confidence >= 1 {
		confidence = 0.95
	}
	z := NormalQuantile(1 - (1-confidence)/2)
	nn := float64(n)
	p := float64(successes) / nn
	z2 := z * z
	denom := 1 + z2/nn
	center := p + z2/(2*nn)
	half := z * math.Sqrt(p*(1-p)/nn+z2/(4*nn*nn))
	lo := (center - half) / denom
	hi := (center + half) / denom
	return Interval{Lo: math.Max(0, lo), Hi: math.Min(1, hi), Confidence: confidence}
}

// RollingCoverage tracks a boolean outcome (CI covered the truth or not)
// over a sliding window of the last Cap observations: a Ring plus its
// running hit count. The zero value is unusable; construct with
// NewRollingCoverage. Not safe for concurrent use — callers serialize
// access.
type RollingCoverage struct {
	*Ring[bool]
	hits int
}

// NewRollingCoverage creates a window holding up to cap observations
// (minimum 1).
func NewRollingCoverage(cap int) *RollingCoverage {
	return &RollingCoverage{Ring: NewRing[bool](cap)}
}

// Push records one outcome, evicting the oldest when the window is full.
func (r *RollingCoverage) Push(covered bool) {
	if old, evicted := r.Ring.Push(covered); evicted && old {
		r.hits--
	}
	if covered {
		r.hits++
	}
}

// Hits returns how many in-window observations were covered.
func (r *RollingCoverage) Hits() int { return r.hits }

// Rate returns the in-window coverage fraction (0 when empty).
func (r *RollingCoverage) Rate() float64 {
	if r.N() == 0 {
		return 0
	}
	return float64(r.hits) / float64(r.N())
}

// Wilson returns the Wilson score interval for the in-window coverage.
func (r *RollingCoverage) Wilson(confidence float64) Interval {
	return WilsonInterval(r.hits, r.N(), confidence)
}

// RollingQuantiles tracks a float statistic (e.g. realized relative
// error) over a sliding window of the last Cap observations and answers
// quantile queries over the window. Exact, O(window) space, O(n log n)
// per query — windows here are hundreds of entries, so the simple form
// beats a sketch. Not safe for concurrent use.
type RollingQuantiles struct {
	*Ring[float64]
}

// NewRollingQuantiles creates a window holding up to cap observations
// (minimum 1).
func NewRollingQuantiles(cap int) *RollingQuantiles {
	return &RollingQuantiles{NewRing[float64](cap)}
}

// Quantile returns the q-quantile (0 <= q <= 1) of the window using the
// nearest-rank method; 0 when the window is empty.
func (r *RollingQuantiles) Quantile(q float64) float64 {
	return NearestRank(r.AppendTo(make([]float64, 0, r.N())), q)
}

// NearestRank returns the nearest-rank q-quantile (0 <= q <= 1) of vals,
// sorting vals in place; 0 when vals is empty.
func NearestRank(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	if q <= 0 {
		return vals[0]
	}
	if q >= 1 {
		return vals[len(vals)-1]
	}
	idx := int(math.Ceil(q*float64(len(vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	return vals[idx]
}

// Max returns the largest in-window value (0 when empty).
func (r *RollingQuantiles) Max() float64 {
	var m float64
	for i := 0; i < r.N(); i++ {
		if v := r.At(i); v > m {
			m = v
		}
	}
	return m
}
