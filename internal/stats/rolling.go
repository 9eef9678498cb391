package stats

import (
	"math"
	"slices"
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
// quantile queries over the window. Next to its Ring it keeps the window's
// values in sort.Float64s order (NaN first): a push moves O(window) values
// by binary search, and a quantile is an index, so a window read on every
// query ranks nothing. Exact and O(window) space — windows here are
// hundreds of entries, so the simple form beats a sketch. Not safe for
// concurrent use.
type RollingQuantiles struct {
	*Ring[float64]
	sorted []float64 // the ring's values in sort.Float64s order
}

// NewRollingQuantiles creates a window holding up to cap observations
// (minimum 1).
func NewRollingQuantiles(cap int) *RollingQuantiles {
	r := NewRing[float64](cap)
	return &RollingQuantiles{Ring: r, sorted: make([]float64, 0, len(r.buf))}
}

// Push appends v, evicting the oldest value when the window is full; it
// returns the evicted value as Ring.Push does.
func (r *RollingQuantiles) Push(v float64) (old float64, evicted bool) {
	if old, evicted = r.Ring.Push(v); evicted {
		// cmp.Compare's order is sort.Float64s's, and -0 == +0: an evicted
		// -0 may remove a tied +0, which ranks the same.
		i, _ := slices.BinarySearch(r.sorted, old)
		r.sorted = slices.Delete(r.sorted, i, i+1)
	}
	i, _ := slices.BinarySearch(r.sorted, v)
	r.sorted = slices.Insert(r.sorted, i, v)
	return old, evicted
}

// Quantile returns the q-quantile (0 <= q <= 1) of the window using the
// nearest-rank method; 0 when the window is empty.
func (r *RollingQuantiles) Quantile(q float64) float64 {
	if len(r.sorted) == 0 {
		return 0
	}
	return r.sorted[rank(len(r.sorted), q)]
}

// NearestRank returns the nearest-rank q-quantile (0 <= q <= 1) of vals,
// sorting vals in place (sort.Float64s: NaN below every number); 0 when
// vals is empty. It is for one-shot reads; a rolling window keeps its
// values ordered instead (RollingQuantiles).
func NearestRank(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return vals[rank(len(vals), q)]
}

// rank is the index of the nearest-rank q-quantile among n sorted values.
func rank(n int, q float64) int {
	switch {
	case q <= 0:
		return 0
	case q >= 1:
		return n - 1
	}
	return max(int(math.Ceil(q*float64(n)))-1, 0)
}

// Max returns the largest in-window value, or 0 when the window is empty
// or holds nothing above 0.
func (r *RollingQuantiles) Max() float64 {
	if n := len(r.sorted); n > 0 && r.sorted[n-1] > 0 {
		return r.sorted[n-1]
	}
	return 0
}
