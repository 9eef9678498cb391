package insight

import "repro/internal/stats"

// sentinel detects per-fingerprint regressions by comparing the newest
// window of a statistic against the fingerprint's own trailing
// baseline: the last 2W observations in two ordered windows of W, cur
// the newer and base the older half. The value cur evicts is pushed into
// base, so both halves slide together and the baseline always trails the
// current window by exactly W observations — a shape that regressed and
// stayed regressed eventually becomes its own (new) baseline, which is
// the desired "alert on change, not on level" semantics. Not safe for
// concurrent use; the registry serializes access.
type sentinel struct {
	base, cur *stats.RollingQuantiles

	factor float64 // current p95 must exceed factor × baseline p95 ...
	floor  float64 // ... and baseline + floor (absolute noise gate)

	tripped  bool
	baseline float64 // last evaluated baseline p95
	current  float64 // last evaluated current p95
}

func newSentinel(window int, factor, floor float64) *sentinel {
	return &sentinel{
		base: stats.NewRollingQuantiles(window), cur: stats.NewRollingQuantiles(window),
		factor: factor, floor: floor,
	}
}

// full reports whether both halves hold W observations.
func (s *sentinel) full() bool { return s.base.Full() }

// push records one observation and re-evaluates once both halves are
// full. It returns edge-triggered transitions: fired on the regression
// edge, recovered on the way back.
func (s *sentinel) push(v float64) (fired, recovered bool) {
	if old, evicted := s.cur.Push(v); evicted {
		s.base.Push(old)
	}
	if !s.full() {
		return false, false
	}
	s.baseline = s.base.Quantile(0.95)
	s.current = s.cur.Quantile(0.95)
	bad := s.current > s.factor*s.baseline && s.current > s.baseline+s.floor
	switch {
	case bad && !s.tripped:
		s.tripped = true
		return true, false
	case !bad && s.tripped:
		s.tripped = false
		return false, true
	}
	return false, false
}

// quantileAll is the display quantile over every retained observation:
// the two halves merged, on the read path only.
func (s *sentinel) quantileAll(q float64) float64 {
	return stats.NearestRank(s.cur.AppendTo(s.base.AppendTo(nil)), q)
}

// quantileCurrent is the display quantile over the newest half (or over
// everything while the halves are still filling).
func (s *sentinel) quantileCurrent(q float64) float64 {
	if !s.full() {
		return s.quantileAll(q)
	}
	return s.cur.Quantile(q)
}

// quantileBaseline is the trailing-baseline half's quantile (0 while
// filling).
func (s *sentinel) quantileBaseline(q float64) float64 {
	if !s.full() {
		return 0
	}
	return s.base.Quantile(q)
}
