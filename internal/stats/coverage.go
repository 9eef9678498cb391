package stats

import "math"

// RequiredSampleSizeForRelError returns the sample size n such that a CLT
// interval at the given confidence has relative half-width at most relErr
// for a population with coefficient of variation cv = sigma/|mu|:
//
//	n >= (z * cv / relErr)²
func RequiredSampleSizeForRelError(cv, relErr, confidence float64) float64 {
	if relErr <= 0 {
		return math.Inf(1)
	}
	z := NormalQuantile(1 - (1-confidence)/2)
	n := z * cv / relErr
	return n * n
}
