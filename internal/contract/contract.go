// Package contract implements a-priori error contracts: the sizing math
// that turns `WITH ERROR e% CONFIDENCE c%` from an after-the-fact wish
// into a promise. A cheap pilot run estimates each aggregate's variance
// and selectivity; the PilotDB-style sizing bound (with a chi-square
// finite-sample correction on the pilot variance and the finite-
// population correction folded into the rate transform) then determines
// the stage-two sampling fraction that makes the CLT half-width land at
// or below the target — or proves that no fraction inside the admission
// budget can, in which case the engine must refuse honestly rather than
// stamp "met" on a guess.
//
// The package is engine-agnostic on purpose: both Bernoulli row sampling
// (Horvitz-Thompson, the online engine) and without-replacement prefix
// sampling (OLA's shuffled scan) have estimator variance of the form
//
//	Var(rate) = C · (1 − rate) / rate
//
// for a constant C the pilot measures, so one sizing rule serves every
// eligible engine, and — because merging per-shard partials in shard
// order is exactly the stratified composition in internal/stats — the
// same rule sizes a scatter-gather run from the composed pilot variance,
// with Neyman allocation deciding how the sized budget splits across
// shards.
package contract

import (
	"math"

	"repro/internal/stats"
)

// Verdict is the contract outcome stamped into Diagnostics.
type Verdict string

const (
	// VerdictMet: stage two ran at the sized fraction and the realized
	// relative CI half-width is at or below the target.
	VerdictMet Verdict = "met"
	// VerdictMissed: the sized run's realized half-width still exceeds
	// the target (pilot variance underestimated the tail), or the run
	// degraded mid-flight — the answer is honest, the promise is not.
	VerdictMissed Verdict = "missed"
	// VerdictInfeasible: sizing proved the target unreachable within the
	// admission budget; the engine degraded to a best-effort a-posteriori
	// CI and says so instead of lying.
	VerdictInfeasible Verdict = "infeasible"
)

// InfeasibleFlag is the diagnostic message token attached when a
// contract is refused; tests and operators grep for it.
const InfeasibleFlag = "contract_infeasible"

// Estimate is one aggregate's pilot moments: the point estimate, the
// estimator's variance at the pilot size, and the number of sampled rows
// behind it.
type Estimate struct {
	Value    float64
	Variance float64
	N        float64
}

// Sizing is the stage-two plan for one contract.
type Sizing struct {
	// Rate is the stage-two sampling fraction to run at. When the
	// contract is infeasible this is the budget rate (best effort).
	Rate float64
	// RequiredRate is what the contract actually needs, uncapped.
	RequiredRate float64
	// Feasible reports whether Rate honors the contract.
	Feasible bool
	// Reason is non-empty when sizing itself was impossible (degenerate
	// pilot) or the requirement exceeded the budget.
	Reason string
}

// VarianceUpperBound inflates a sample variance to its one-sided
// (1−level missing mass below) chi-square upper confidence bound:
// df·s²/χ²_{1−level}(df). With df = n−1 pilot observations the true σ²
// exceeds this bound with probability ≤ 1−level.
func VarianceUpperBound(variance, n, level float64) float64 {
	df := n - 1
	if df < 1 || variance <= 0 {
		return variance
	}
	q := stats.ChiSquareQuantile(1-level, df)
	if q <= 0 {
		return variance
	}
	return variance * df / q
}

// RequiredRate sizes stage two for one estimate. Both supported
// estimator families obey Var(rate) = C·(1−rate)/rate, so the pilot at
// pilotRate with variance V gives C = V_ub·pilotRate/(1−pilotRate), and
// solving z²·Var(rate) ≤ (relErr·|value|)² for rate yields
//
//	rate = n0 / (n0 + 1),  n0 = z²·C / (relErr·|value|)²
//
// which is exactly the classic n₀ = (z·cv/e)² sample-size bound
// (stats.RequiredSampleSizeForRelError) with the finite-population
// correction n = n₀/(1+n₀/N) absorbed into the rate transform — no
// population size needed, so selectivity cancels out too.
//
// It returns (rate, "") on success and (0, reason) when the pilot is too
// degenerate to size from. A zero-variance pilot returns rate 0 with no
// reason: no observed spread means any fraction suffices, and the engine
// clamps to its minimum.
func RequiredRate(e Estimate, pilotRate, relErr, conf, varConf float64) (float64, string) {
	switch {
	case relErr <= 0 || conf <= 0 || conf >= 1:
		return 0, "invalid error spec"
	case e.N < 2:
		return 0, "pilot too small to estimate variance (fewer than 2 contributing rows)"
	case e.Value == 0:
		return 0, "pilot estimate is zero; a relative-error target cannot be sized"
	case pilotRate >= 1:
		return 1, "" // the pilot already read everything: exact
	case pilotRate <= 0:
		return 0, "pilot fraction unknown"
	}
	varUB := VarianceUpperBound(e.Variance, e.N, varConf)
	if varUB <= 0 {
		return 0, ""
	}
	c := varUB * pilotRate / (1 - pilotRate)
	cv := math.Sqrt(c) / math.Abs(e.Value)
	n0 := stats.RequiredSampleSizeForRelError(cv, relErr, conf)
	if math.IsNaN(n0) || math.IsInf(n0, 0) {
		return 0, "sizing diverged"
	}
	return n0 / (n0 + 1), ""
}

// Size computes the stage-two sampling fraction for a whole query: the
// target confidence is Bonferroni-split across the estimates (matching
// how the engines annotate multi-aggregate and grouped results), each
// estimate is sized independently, and the binding constraint — the
// largest required rate — wins. An unsizable estimate or a requirement
// past the budget makes the contract infeasible; Rate then falls back to
// the budget so the engine can still return its best a-posteriori effort.
// budget is the admission budget, the largest stage-two fraction the
// engine may spend (in (0, 1]); varConf is the one-sided chi-square level
// of the pilot variance's upper bound (in (0, 1)), since sizing from the
// raw pilot variance would undershoot roughly half the time.
func Size(ests []Estimate, pilotRate, relErr, conf, budget, varConf float64) Sizing {
	s := Sizing{Feasible: true}
	if len(ests) == 0 {
		s.Feasible = false
		s.Reason = "pilot produced no aggregate estimates"
		s.Rate = budget
		return s
	}
	perEst := stats.AllocateConfidence(conf, len(ests))
	for _, e := range ests {
		r, reason := RequiredRate(e, pilotRate, relErr, perEst, varConf)
		if reason != "" {
			s.Feasible = false
			s.Reason = reason
			s.Rate = budget
			s.RequiredRate = math.Max(s.RequiredRate, budget)
			return s
		}
		if r > s.RequiredRate {
			s.RequiredRate = r
		}
	}
	s.Rate = s.RequiredRate
	if s.RequiredRate > budget {
		s.Feasible = false
		s.Reason = "required sampling fraction exceeds the admission budget"
		s.Rate = budget
	}
	return s
}

// ShardStratum is one shard's pilot state for stage-two allocation.
type ShardStratum struct {
	// Rows is the shard's population size.
	Rows float64
	// StdDev is the per-row standard deviation the pilot observed there
	// (any consistent scale across shards works; only ratios matter).
	StdDev float64
}

// AllocateShards splits a sized stage-two row budget across shards
// Neyman-style (n_h ∝ N_h·S_h) and returns per-shard sampling fractions.
// Because Neyman allocation minimizes the stratified total variance for
// a fixed budget — never worse than the proportional allocation the
// sizing bound assumed — the contract target computed from the composed
// pilot variance still holds under the reallocation. Shards the pilot
// saw no spread in get the minimum allocation.
func AllocateShards(strata []ShardStratum, totalRows float64) []float64 {
	if len(strata) == 0 {
		return nil
	}
	sizes := make([]float64, len(strata))
	stddevs := make([]float64, len(strata))
	for i, st := range strata {
		sizes[i] = st.Rows
		stddevs[i] = st.StdDev
	}
	alloc := stats.NeymanAllocation(sizes, stddevs, totalRows)
	rates := make([]float64, len(alloc))
	for i, n := range alloc {
		if sizes[i] <= 0 {
			rates[i] = 1
			continue
		}
		r := n / sizes[i]
		if r > 1 {
			r = 1
		}
		rates[i] = r
	}
	return rates
}

// Summary is the contract block stamped into Diagnostics and serialized
// to clients: what was promised, what the two stages cost, and whether
// the promise was kept.
type Summary struct {
	// TargetRelError / Confidence echo the contract.
	TargetRelError float64 `json:"target_rel_error"`
	Confidence     float64 `json:"confidence"`

	// PilotRows / FinalRows are sampled-row counts per stage;
	// PilotFraction / FinalFraction the corresponding sampling rates.
	PilotRows     int64   `json:"pilot_rows"`
	PilotFraction float64 `json:"pilot_fraction"`
	FinalRows     int64   `json:"final_rows"`
	FinalFraction float64 `json:"final_fraction"`

	// RequiredFraction is what sizing demanded; BudgetFraction is the
	// admission cap it was checked against.
	RequiredFraction float64 `json:"required_fraction"`
	BudgetFraction   float64 `json:"budget_fraction"`

	// RealizedRelError is the realized relative CI half-width of the
	// final answer — the a-posteriori check on the a-priori promise.
	RealizedRelError float64 `json:"realized_rel_error"`

	Verdict    Verdict `json:"verdict"`
	Infeasible bool    `json:"infeasible,omitempty"`
	Reason     string  `json:"reason,omitempty"`

	// ShardFractions is the Neyman-allocated stage-two fraction per
	// shard, present only for scatter-gather contract runs.
	ShardFractions []float64 `json:"shard_fractions,omitempty"`
}

// Conclude fills in the verdict from the realized error. degraded marks
// runs that lost data mid-stage-two (shard loss, chunk faults): such an
// answer may be honest, but an extrapolated or partial result can never
// certify an a-priori contract, so "met" is off the table.
func (s *Summary) Conclude(realized float64, degraded bool) {
	s.RealizedRelError = realized
	switch {
	case s.Infeasible:
		s.Verdict = VerdictInfeasible
	case degraded:
		s.Verdict = VerdictMissed
		if s.Reason == "" {
			s.Reason = "execution degraded during stage two; refusing to certify the contract"
		}
	case realized <= s.TargetRelError:
		s.Verdict = VerdictMet
	default:
		s.Verdict = VerdictMissed
		if s.Reason == "" {
			s.Reason = "realized half-width exceeded the target despite sizing"
		}
	}
}
