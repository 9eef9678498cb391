package insight

import "repro/internal/stats"

// sentinel detects per-fingerprint regressions by comparing the newest
// window of a statistic against the fingerprint's own trailing
// baseline: a ring of 2W observations whose chronologically older half
// is the baseline and newer half the current window. Both halves slide
// together, so the baseline always trails the current window by exactly
// W observations — a shape that regressed and stayed regressed
// eventually becomes its own (new) baseline, which is the desired
// "alert on change, not on level" semantics. Not safe for concurrent
// use; the registry serializes access.
type sentinel struct {
	buf     *stats.Ring[float64] // capacity 2W
	scratch []float64            // values' copy, reordered by each quantile

	factor float64 // current p95 must exceed factor × baseline p95 ...
	floor  float64 // ... and baseline + floor (absolute noise gate)

	tripped  bool
	baseline float64 // last evaluated baseline p95
	current  float64 // last evaluated current p95
}

func newSentinel(window int, factor, floor float64) *sentinel {
	if window < 1 {
		window = 1
	}
	return &sentinel{buf: stats.NewRing[float64](2 * window), factor: factor, floor: floor}
}

// values returns a copy of the ring, oldest first, in the sentinel's
// scratch slice, valid until the next call; once the ring is full its
// first half is the baseline and its second the current window.
func (s *sentinel) values() []float64 {
	s.scratch = s.buf.AppendTo(s.scratch[:0])
	return s.scratch
}

// push records one observation and re-evaluates once the ring is full.
// It returns edge-triggered transitions: fired on the regression edge,
// recovered on the way back.
func (s *sentinel) push(v float64) (fired, recovered bool) {
	s.buf.Push(v)
	if !s.buf.Full() {
		return false, false
	}
	vals := s.values()
	w := len(vals) / 2
	s.baseline = stats.NearestRank(vals[:w], 0.95)
	s.current = stats.NearestRank(vals[w:], 0.95)
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

// quantileAll is the display quantile over every retained observation.
func (s *sentinel) quantileAll(q float64) float64 {
	return stats.NearestRank(s.values(), q)
}

// quantileCurrent is the display quantile over the newest half (or over
// everything while the ring is still filling).
func (s *sentinel) quantileCurrent(q float64) float64 {
	vals := s.values()
	if s.buf.Full() {
		vals = vals[len(vals)/2:]
	}
	return stats.NearestRank(vals, q)
}

// quantileBaseline is the trailing-baseline half's quantile (0 while
// filling).
func (s *sentinel) quantileBaseline(q float64) float64 {
	if !s.buf.Full() {
		return 0
	}
	vals := s.values()
	return stats.NearestRank(vals[:len(vals)/2], q)
}
