package stats

import "math"

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
// quantile queries over the window. Exact, O(window) space, and O(window)
// expected time per query by selection — windows here are hundreds of
// entries, so the simple form beats a sketch. Not safe for concurrent use.
type RollingQuantiles struct {
	*Ring[float64]
	scratch []float64 // the window's copy a query reorders
}

// NewRollingQuantiles creates a window holding up to cap observations
// (minimum 1).
func NewRollingQuantiles(cap int) *RollingQuantiles {
	return &RollingQuantiles{Ring: NewRing[float64](cap)}
}

// Quantile returns the q-quantile (0 <= q <= 1) of the window using the
// nearest-rank method; 0 when the window is empty.
func (r *RollingQuantiles) Quantile(q float64) float64 {
	r.scratch = r.AppendTo(r.scratch[:0])
	return NearestRank(r.scratch, q)
}

// NearestRank returns the nearest-rank q-quantile (0 <= q <= 1) of vals,
// reordering vals in place; 0 when vals is empty. The ranks are those of
// sort.Float64s — NaN below every number — and the value is found by
// selection, in expected linear time, without sorting.
func NearestRank(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	k := 0
	switch {
	case q <= 0:
	case q >= 1:
		k = len(vals) - 1
	default:
		k = max(int(math.Ceil(q*float64(len(vals))))-1, 0)
	}
	return selectRank(vals, k)
}

// floatLess is sort.Float64s's order: NaN first, then the numbers.
func floatLess(x, y float64) bool { return x < y || (x != x && y == y) }

// selectRank reorders a so that a[k] holds the value that sorting would put
// there, and returns it: quickselect with a median-of-three pivot, and an
// insertion sort once a range is short.
func selectRank(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for hi-lo >= 12 {
		m := lo + (hi-lo)/2
		if floatLess(a[m], a[lo]) {
			a[m], a[lo] = a[lo], a[m]
		}
		if floatLess(a[hi], a[lo]) {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if floatLess(a[hi], a[m]) {
			a[hi], a[m] = a[m], a[hi]
		}
		p := a[m]
		i, j := lo, hi
		for i <= j {
			for floatLess(a[i], p) {
				i++
			}
			for floatLess(p, a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo:j+1] ≤ p ≤ a[i:hi+1], and anything between equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && floatLess(a[j], a[j-1]); j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
	return a[k]
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
