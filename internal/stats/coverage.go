package stats

import "math"

// GroupMissProbRow returns the probability that uniform row-level Bernoulli
// sampling at rate p misses every one of the m rows of a group:
// (1-p)^m.
func GroupMissProbRow(p float64, m int) float64 {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return 1
	}
	return math.Pow(1-p, float64(m))
}

// GroupMissProbBlock returns an upper bound on the probability that
// block-level Bernoulli sampling at rate p misses a group of m rows when
// the table block size is b: the group occupies at least ceil(m/b) blocks,
// so the miss probability is at most (1-p)^ceil(m/b).
func GroupMissProbBlock(p float64, m, b int) float64 {
	if b <= 0 {
		b = 1
	}
	blocks := (m + b - 1) / b
	return GroupMissProbRow(p, blocks)
}

// RequiredRateForCoverage returns the minimum Bernoulli row-sampling rate
// that misses any single group of at least m rows with probability at most
// delta: p >= 1 - delta^(1/m).
func RequiredRateForCoverage(m int, delta float64) float64 {
	if m <= 0 {
		return 1
	}
	if delta <= 0 {
		return 1
	}
	if delta >= 1 {
		return 0
	}
	return 1 - math.Pow(delta, 1/float64(m))
}

// SampleSizeLowerBound returns a probabilistic lower bound on the Bernoulli
// sample size: with probability at least 1-delta, the realized sample size
// of Binomial(n, p) is at least the returned value (normal approximation
// with continuity ignored; clamped at 0).
func SampleSizeLowerBound(n int, p, delta float64) float64 {
	mu := float64(n) * p
	sd := math.Sqrt(float64(n) * p * (1 - p))
	lb := mu - NormalQuantile(1-delta)*sd
	if lb < 0 {
		lb = 0
	}
	return lb
}

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

// BlockDesignEffect returns the ratio between the sample size needed by
// block sampling and by row sampling for equal accuracy, following the
// standard cluster-sampling design-effect: with block size b, overall
// variance sigma², and mean within-block variance wv,
//
//	deff_blocks/rows = (sigma² - wv·(1-1/b)·b/(b-1)) ... simplified to
//	ratio = 1 - avgWithinVar/sigma² ... per-block-unit formulation:
//
// ratio = (sigma² - meanWithinVar) / (sigma² / b) · (1/b) = 1 - wv/sigma².
// Callers pass the population variance and the mean within-block variance;
// the return value is the block-to-row sample-size ratio in *rows*:
// blockRows/rowRows = b · (1 - wv/sigma²) ... see Lemma 4.1 analogue:
// ratio = 1 - wv/sigma² per sampled row times b rows per block.
func BlockDesignEffect(sigma2, meanWithinVar float64, blockSize int) float64 {
	if sigma2 <= 0 {
		return 1
	}
	b := float64(blockSize)
	betweenVar := sigma2 - meanWithinVar
	if betweenVar < 0 {
		betweenVar = 0
	}
	// Variance of a block mean ≈ betweenVar + withinVar/b; variance of a
	// row mean over k·b independent rows ≈ sigma²/(k·b). Equating accuracy
	// for k sampled blocks versus n sampled rows yields
	// rows(block)/rows(row) = b · (betweenVar + wv/b) / sigma².
	return b * (betweenVar + meanWithinVar/b) / sigma2
}
