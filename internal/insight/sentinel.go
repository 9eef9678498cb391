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
	buf  []float64 // capacity 2W, chronological ring
	next int
	n    int

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
	return &sentinel{buf: make([]float64, 2*window), factor: factor, floor: floor}
}

func (s *sentinel) full() bool { return s.n == len(s.buf) }

// push records one observation and re-evaluates once the ring is full.
// It returns edge-triggered transitions: fired on the regression edge,
// recovered on the way back.
func (s *sentinel) push(v float64) (fired, recovered bool) {
	s.buf[s.next] = v
	s.next = (s.next + 1) % len(s.buf)
	if s.n < len(s.buf) {
		s.n++
	}
	if !s.full() {
		return false, false
	}
	w := len(s.buf) / 2
	// Chronological order starts at next once the ring is full.
	older := make([]float64, 0, w)
	newer := make([]float64, 0, w)
	for i := 0; i < len(s.buf); i++ {
		x := s.buf[(s.next+i)%len(s.buf)]
		if i < w {
			older = append(older, x)
		} else {
			newer = append(newer, x)
		}
	}
	s.baseline = stats.NearestRank(older, 0.95)
	s.current = stats.NearestRank(newer, 0.95)
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
	if s.n == 0 {
		return 0
	}
	vals := make([]float64, s.n)
	copy(vals, s.buf[:s.n])
	return stats.NearestRank(vals, q)
}

// quantileCurrent is the display quantile over the newest half (or over
// everything while the ring is still filling).
func (s *sentinel) quantileCurrent(q float64) float64 {
	if !s.full() {
		return s.quantileAll(q)
	}
	w := len(s.buf) / 2
	newer := make([]float64, 0, w)
	for i := w; i < len(s.buf); i++ {
		newer = append(newer, s.buf[(s.next+i)%len(s.buf)])
	}
	return stats.NearestRank(newer, q)
}

// quantileBaseline is the trailing-baseline half's quantile (0 while
// filling).
func (s *sentinel) quantileBaseline(q float64) float64 {
	if !s.full() {
		return 0
	}
	w := len(s.buf) / 2
	older := make([]float64, 0, w)
	for i := 0; i < w; i++ {
		older = append(older, s.buf[(s.next+i)%len(s.buf)])
	}
	return stats.NearestRank(older, q)
}
