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
// over a sliding window of the last Cap observations. The zero value is
// unusable; construct with NewRollingCoverage. Not safe for concurrent
// use — callers serialize access.
type RollingCoverage struct {
	ring []bool
	next int
	n    int
	hits int
}

// NewRollingCoverage creates a window holding up to cap observations
// (minimum 1).
func NewRollingCoverage(cap int) *RollingCoverage {
	if cap < 1 {
		cap = 1
	}
	return &RollingCoverage{ring: make([]bool, cap)}
}

// Push records one outcome, evicting the oldest when the window is full.
func (r *RollingCoverage) Push(covered bool) {
	if r.n == len(r.ring) {
		if r.ring[r.next] {
			r.hits--
		}
	} else {
		r.n++
	}
	r.ring[r.next] = covered
	if covered {
		r.hits++
	}
	r.next = (r.next + 1) % len(r.ring)
}

// N returns the number of observations currently in the window.
func (r *RollingCoverage) N() int { return r.n }

// Hits returns how many in-window observations were covered.
func (r *RollingCoverage) Hits() int { return r.hits }

// Rate returns the in-window coverage fraction (0 when empty).
func (r *RollingCoverage) Rate() float64 {
	if r.n == 0 {
		return 0
	}
	return float64(r.hits) / float64(r.n)
}

// Wilson returns the Wilson score interval for the in-window coverage.
func (r *RollingCoverage) Wilson(confidence float64) Interval {
	return WilsonInterval(r.hits, r.n, confidence)
}

// RollingQuantiles tracks a float statistic (e.g. realized relative
// error) over a sliding window of the last Cap observations and answers
// quantile queries over the window. Exact, O(window) space, O(n log n)
// per query — windows here are hundreds of entries, so the simple form
// beats a sketch. Not safe for concurrent use.
type RollingQuantiles struct {
	ring []float64
	next int
	n    int
}

// NewRollingQuantiles creates a window holding up to cap observations
// (minimum 1).
func NewRollingQuantiles(cap int) *RollingQuantiles {
	if cap < 1 {
		cap = 1
	}
	return &RollingQuantiles{ring: make([]float64, cap)}
}

// Push records one value, evicting the oldest when the window is full.
func (r *RollingQuantiles) Push(v float64) {
	if r.n < len(r.ring) {
		r.n++
	}
	r.ring[r.next] = v
	r.next = (r.next + 1) % len(r.ring)
}

// N returns the number of observations currently in the window.
func (r *RollingQuantiles) N() int { return r.n }

// Quantile returns the q-quantile (0 <= q <= 1) of the window using the
// nearest-rank method; 0 when the window is empty.
func (r *RollingQuantiles) Quantile(q float64) float64 {
	vals := make([]float64, r.n)
	copy(vals, r.ring[:r.n])
	return NearestRank(vals, q)
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
	for i := 0; i < r.n; i++ {
		if r.ring[i] > m {
			m = r.ring[i]
		}
	}
	return m
}
