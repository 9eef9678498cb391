package stats

import "math"

// AllocateConfidence splits an overall confidence across k events by
// Boole's inequality: if each event individually fails with probability
// (1-c')/1 where c' is the returned per-event confidence, the probability
// that any fails is at most k·(1-c') = 1-c.
func AllocateConfidence(c float64, k int) float64 {
	if k <= 1 {
		return c
	}
	return 1 - (1-c)/float64(k)
}

// CombineIntervalsProduct returns an interval for the product X·Y of two
// independent positive estimates with intervals ix, iy, by interval
// arithmetic (conservative).
func CombineIntervalsProduct(ix, iy Interval) Interval {
	candidates := [4]float64{ix.Lo * iy.Lo, ix.Lo * iy.Hi, ix.Hi * iy.Lo, ix.Hi * iy.Hi}
	lo, hi := candidates[0], candidates[0]
	for _, c := range candidates[1:] {
		lo = math.Min(lo, c)
		hi = math.Max(hi, c)
	}
	return Interval{Lo: lo, Hi: hi, Confidence: math.Min(ix.Confidence, iy.Confidence)}
}

// CombineIntervalsRatio returns an interval for X/Y by interval arithmetic.
// If iy straddles zero the result is unbounded and Lo/Hi are ±Inf.
func CombineIntervalsRatio(ix, iy Interval) Interval {
	conf := math.Min(ix.Confidence, iy.Confidence)
	if iy.Lo <= 0 && iy.Hi >= 0 {
		return Interval{Lo: math.Inf(-1), Hi: math.Inf(1), Confidence: conf}
	}
	candidates := [4]float64{ix.Lo / iy.Lo, ix.Lo / iy.Hi, ix.Hi / iy.Lo, ix.Hi / iy.Hi}
	lo, hi := candidates[0], candidates[0]
	for _, c := range candidates[1:] {
		lo = math.Min(lo, c)
		hi = math.Max(hi, c)
	}
	return Interval{Lo: lo, Hi: hi, Confidence: conf}
}
