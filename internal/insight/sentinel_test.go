package insight

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// fill pushes n copies of v, returning whether any push fired or
// recovered.
func fill(s *sentinel, v float64, n int) (fired, recovered bool) {
	for i := 0; i < n; i++ {
		f, rec := s.push(v)
		fired = fired || f
		recovered = recovered || rec
	}
	return fired, recovered
}

// TestSentinelNoTripWhileFilling: no evaluation until the 2W ring is
// full, even for wild values.
func TestSentinelNoTripWhileFilling(t *testing.T) {
	s := newSentinel(4, 2, 1)
	for i, v := range []float64{1, 1, 1, 1000, 1000, 1000, 1000} {
		if fired, recovered := s.push(v); fired || recovered {
			t.Fatalf("transition at push %d while ring (cap 8) still filling", i)
		}
	}
}

// TestSentinelTripsOnSeededJump: a steady shape whose latency doubles
// trips exactly once on the edge.
func TestSentinelTripsOnSeededJump(t *testing.T) {
	s := newSentinel(4, 2, 1)
	fill(s, 10, 8) // full ring of steady 10ms
	if s.tripped {
		t.Fatal("steady window tripped")
	}
	var fires int
	for i := 0; i < 4; i++ {
		fired, recovered := s.push(100)
		if recovered {
			t.Fatal("spurious recovery during regression")
		}
		if fired {
			fires++
		}
	}
	if fires != 1 {
		t.Fatalf("fired %d times during sustained jump, want exactly 1 (edge-triggered)", fires)
	}
	if !s.tripped {
		t.Fatal("sentinel not tripped after sustained jump")
	}
	if s.baseline >= s.current {
		t.Fatalf("baseline %v !< current %v", s.baseline, s.current)
	}
}

// TestSentinelFloorGatesNoise: a doubling that stays under the absolute
// floor never trips (microsecond noise on fast shapes).
func TestSentinelFloorGatesNoise(t *testing.T) {
	s := newSentinel(4, 2, 1) // floor 1ms
	fill(s, 0.1, 8)
	if fired, _ := fill(s, 0.3, 4); fired || s.tripped {
		t.Fatal("sub-floor tripled latency tripped the sentinel")
	}
}

// TestSentinelRecovers: after the regression passes, the sentinel emits
// one recovered edge; a *sustained* regression becomes its own baseline
// and also reads as recovered (alert on change, not level).
func TestSentinelRecovers(t *testing.T) {
	s := newSentinel(4, 2, 1)
	fill(s, 10, 8)
	if fired, _ := fill(s, 100, 4); !fired {
		t.Fatal("jump did not trip")
	}
	// Four more regressed observations: the regressed half slides into
	// the baseline half, so current (100) vs baseline (100) is no longer
	// a change.
	var recoveries int
	for i := 0; i < 4; i++ {
		fired, recovered := s.push(100)
		if fired {
			t.Fatal("re-fired while already tripped")
		}
		if recovered {
			recoveries++
		}
	}
	if recoveries != 1 {
		t.Fatalf("recovered %d times, want exactly 1", recoveries)
	}
	if s.tripped {
		t.Fatal("still tripped after regression became the baseline")
	}
}

// TestSentinelQuantiles: display quantiles reflect the halves.
func TestSentinelQuantiles(t *testing.T) {
	s := newSentinel(2, 2, 1)
	for _, v := range []float64{1, 2, 30, 40} {
		s.push(v)
	}
	if got := s.quantileBaseline(0.95); got != 2 {
		t.Fatalf("baseline p95 = %v, want 2", got)
	}
	if got := s.quantileCurrent(0.95); got != 40 {
		t.Fatalf("current p95 = %v, want 40", got)
	}
	if got := s.quantileAll(0.5); got != 2 {
		t.Fatalf("overall p50 = %v, want 2", got)
	}
}

// TestRegistrySeededLatencyRegression: end-to-end through the registry —
// a seeded latency jump on one fingerprint emits a regression event for
// that fingerprint only, and the scorecard exposes the sentinel state.
func TestRegistrySeededLatencyRegression(t *testing.T) {
	var events []Event
	r := New(Config{OnEvent: func(ev Event) { events = append(events, ev) }})
	victim := "SELECT SUM(x) FROM t WHERE x > 5"
	bystander := "SELECT COUNT(*) FROM t"
	var victimHash string
	// Fill both halves of the ring at the baseline, then push enough slow
	// observations into the current half to move its p95.
	for i := 0; i < 2*window; i++ {
		victimHash = r.Offer(victim, obs("online", 10))
		r.Offer(bystander, obs("exact", 10))
	}
	for i := 0; i < window/16; i++ {
		r.Offer(victim, obs("online", 200)) // seeded regression
		r.Offer(bystander, obs("exact", 10))
	}
	var reg []Event
	for _, ev := range events {
		if ev.Kind == EventRegression {
			reg = append(reg, ev)
		}
	}
	if len(reg) != 1 {
		t.Fatalf("regression events = %+v, want exactly 1", reg)
	}
	if reg[0].Fingerprint != victimHash || reg[0].Signal != SignalLatency {
		t.Fatalf("regression event = %+v, want fingerprint %s signal %s", reg[0], victimHash, SignalLatency)
	}
	if reg[0].Template == "" || reg[0].Current <= reg[0].Baseline {
		t.Fatalf("regression event lacks context: %+v", reg[0])
	}
	if got := r.Regressions(); got != 1 {
		t.Fatalf("Regressions() = %d, want 1", got)
	}
	byReg := r.Top(1, ByRegressions)
	if byReg[0].Fingerprint != victimHash || byReg[0].Regressions != 1 {
		t.Fatalf("top-by-regressions = %+v", byReg[0])
	}
	if len(byReg[0].Active) != 1 || byReg[0].Active[0] != SignalLatency {
		t.Fatalf("active regressions = %v, want [%s]", byReg[0].Active, SignalLatency)
	}
	if byReg[0].BaselineLatencyP95MS == 0 {
		t.Fatal("snapshot missing trailing-baseline p95")
	}
}

// TestRegistryCoverageSentinel: sustained audit misses on one technique
// trip the Wilson-gated coverage sentinel; covered audits recover it.
func TestRegistryCoverageSentinel(t *testing.T) {
	var events []Event
	r := New(Config{OnEvent: func(ev Event) { events = append(events, ev) }})
	sql := "SELECT SUM(x) FROM t WHERE x > 5"
	h := r.Offer(sql, obs("online", 1))
	// All misses: after minAudits the Wilson upper bound collapses far
	// below the floor.
	for i := 0; i < 30; i++ {
		r.ReportAudit(h, "online", false)
	}
	var trip *Event
	for i := range events {
		if events[i].Kind == EventRegression {
			trip = &events[i]
			break
		}
	}
	if trip == nil {
		t.Fatalf("coverage sentinel never tripped; events = %+v", events)
	}
	if trip.Signal != SignalCoverage || trip.Technique != "online" || trip.Fingerprint != h {
		t.Fatalf("trip = %+v", trip)
	}
	// A run of covered audits pushes the window back above the floor.
	for i := 0; i < window; i++ {
		r.ReportAudit(h, "online", true)
	}
	recovered := false
	for _, ev := range events {
		if ev.Kind == EventRecovered && ev.Signal == SignalCoverage {
			recovered = true
		}
	}
	if !recovered {
		t.Fatal("coverage sentinel never recovered after covered audits")
	}
	// The tripped period is visible on the card.
	top := r.Top(1, ByTraffic)
	if len(top[0].Techniques) != 1 || top[0].Techniques[0].CoverageN == 0 {
		t.Fatalf("technique coverage missing: %+v", top[0].Techniques)
	}
}

// TestSentinelSequenceMatchesSortedReference: on a seeded stream with
// level shifts, ties and spikes, the sentinel fires and recovers at the
// same pushes, with the same baseline and current p95, as a reference that
// sorts each half of the window.
func TestSentinelSequenceMatchesSortedReference(t *testing.T) {
	const w, factor, floor = 64, 1.5, 0.5
	s := newSentinel(w, factor, floor)
	rng := rand.New(rand.NewSource(46))
	var window []float64
	tripped, transitions := false, 0
	p95 := func(vals []float64) float64 {
		c := slices.Clone(vals)
		sort.Float64s(c)
		return c[int(math.Ceil(0.95*float64(len(c))))-1]
	}
	for i := 0; i < 5000; i++ {
		level := []float64{1, 1, 4, 1, 2.5, 9, 1}[(i/400)%7]
		v := level * (1 + rng.ExpFloat64()/4)
		if rng.Intn(10) == 0 {
			v = math.Round(v) // ties
		}
		fired, recovered := s.push(v)

		window = append(window, v)
		if len(window) > 2*w {
			window = window[1:]
		}
		wantFired, wantRecovered := false, false
		if len(window) == 2*w {
			base, cur := p95(window[:w]), p95(window[w:])
			if s.baseline != base || s.current != cur {
				t.Fatalf("push %d: baseline/current %v/%v, sorted %v/%v", i, s.baseline, s.current, base, cur)
			}
			bad := cur > factor*base && cur > base+floor
			wantFired, wantRecovered = bad && !tripped, !bad && tripped
			tripped = bad
		}
		if fired != wantFired || recovered != wantRecovered {
			t.Fatalf("push %d: fired/recovered %v/%v, sorted reference %v/%v", i, fired, recovered, wantFired, wantRecovered)
		}
		if fired || recovered {
			transitions++
		}
	}
	if transitions < 4 {
		t.Fatalf("%d transitions: the stream does not exercise the sentinel", transitions)
	}
}
