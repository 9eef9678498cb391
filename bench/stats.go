package main

import (
	"math"
	"sort"
)

// rank is the 1-based nearest rank of the p-th percentile among n samples;
// the epsilon keeps 99.9 % of 10000 at 9990, not one float error above.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// median sorts a copy of v and returns its middle value (the mean of the
// two middle values for an even count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailSamples is how many samples must lie beyond a percentile before it
// is reported: fewer, and the number is one slow request, not a tail.
const tailSamples = 10

// samplesBeyond counts the samples strictly above the nearest-rank p-th
// percentile of n samples.
func samplesBeyond(n int, p float64) int {
	return n - rank(n, p)
}

// highestPercentile returns the highest of the candidate percentiles that
// n samples support under the tailSamples rule, or 50 when none does.
func highestPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 95, 99, 99.9} {
		if samplesBeyond(n, p) >= tailSamples {
			best = p
		}
	}
	return best
}

// quartileSpread is the distance between the first and third quartile of
// v as a share of its median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (the "exclusive" method) — the same
// arithmetic the acceptance check uses. It needs at least two values.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		// Position k*(n+1)/4 in 1-based ranks, linearly interpolated. Like
		// Python, clamp the rank to the data first and take the remainder
		// from the clamped rank, which extrapolates at the ends.
		n := len(s)
		j := min(max(k*(n+1)/4, 1), n-1)
		rem := k*(n+1) - j*4
		return (s[j-1]*float64(4-rem) + s[j]*float64(rem)) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / m)
}
