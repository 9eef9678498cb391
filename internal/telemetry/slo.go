package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"
)

// Objective kinds.
const (
	// KindLatency holds a quantile of a latency histogram under a
	// threshold: good events are observations at or below ThresholdMS,
	// and Target is the required good fraction (0.99 = "p99 ≤ threshold").
	// Latency histograms are in seconds; the threshold keeps its
	// millisecond config key.
	KindLatency = "latency"
	// KindRatioFloor holds Good/Total at or above Target (audit CI
	// coverage, contract hold-rate).
	KindRatioFloor = "ratio_floor"
	// KindRatioCeiling holds Bad/Total at or below Target (degradation
	// rate); internally it is the floor 1-Target on the good fraction.
	KindRatioCeiling = "ratio_ceiling"
)

// Duration is a time.Duration that JSON-decodes from Go duration strings
// ("5m", "1h") so SLO config files stay readable.
type Duration time.Duration

// UnmarshalJSON accepts a duration string or a number of seconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("telemetry: bad duration %q: %v", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return fmt.Errorf("telemetry: bad duration %s", b)
	}
	*d = Duration(time.Duration(secs * float64(time.Second)))
	return nil
}

// MarshalJSON renders the duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Objective is one declarative service-level objective over the metric
// time-series. Counter families are summed across their labeled series.
type Objective struct {
	Name string `json:"name"`
	// Kind is "latency", "ratio_floor", or "ratio_ceiling".
	Kind string `json:"kind"`

	// Hist + ThresholdMS define a latency objective's good event:
	// an observation of the named histogram family, in seconds, at or
	// below the threshold, in milliseconds.
	Hist        string  `json:"hist,omitempty"`
	ThresholdMS float64 `json:"threshold_ms,omitempty"`

	// Good/Bad/Total name counter families for ratio objectives:
	// ratio_floor uses Good/Total, ratio_ceiling uses Bad/Total.
	Good  string `json:"good,omitempty"`
	Bad   string `json:"bad,omitempty"`
	Total string `json:"total,omitempty"`

	// Target is the objective: minimum good fraction for latency and
	// ratio_floor, maximum bad fraction for ratio_ceiling.
	Target float64 `json:"target"`

	// FastWindow/SlowWindow are the two burn-rate windows (defaults
	// 5m / 1h). The fast window detects an active incident, the slow
	// window keeps a brief blip from paging.
	FastWindow Duration `json:"fast_window,omitempty"`
	SlowWindow Duration `json:"slow_window,omitempty"`
	// FastBurn is the burn-rate threshold that, sustained in BOTH
	// windows, declares a fast burn (default 14 — the classic
	// "2% of a 30-day budget in one hour" pace).
	FastBurn float64 `json:"fast_burn,omitempty"`
	// MinEvents is the event count below which a window abstains from
	// judging (default 1): one unlucky query must not page.
	MinEvents float64 `json:"min_events,omitempty"`
}

func (o Objective) withDefaults() Objective {
	if o.FastWindow <= 0 {
		o.FastWindow = Duration(5 * time.Minute)
	}
	if o.SlowWindow <= 0 {
		o.SlowWindow = Duration(time.Hour)
	}
	if o.FastBurn <= 0 {
		o.FastBurn = 14
	}
	if o.MinEvents <= 0 {
		o.MinEvents = 1
	}
	return o
}

// validate rejects malformed objectives at config-parse time.
func (o Objective) validate() error {
	if o.Name == "" {
		return fmt.Errorf("telemetry: objective missing name")
	}
	if o.Target <= 0 || o.Target >= 1 {
		return fmt.Errorf("telemetry: objective %s: target %g outside (0, 1)", o.Name, o.Target)
	}
	switch o.Kind {
	case KindLatency:
		if o.Hist == "" || o.ThresholdMS <= 0 {
			return fmt.Errorf("telemetry: latency objective %s needs hist and threshold_ms", o.Name)
		}
		if base, ok := strings.CutSuffix(o.Hist, "_ms"); ok {
			return fmt.Errorf("telemetry: latency objective %s: hist %s is in milliseconds, but latency is recorded in seconds; use %s_seconds", o.Name, o.Hist, base)
		}
	case KindRatioFloor:
		if o.Good == "" || o.Total == "" {
			return fmt.Errorf("telemetry: ratio_floor objective %s needs good and total", o.Name)
		}
	case KindRatioCeiling:
		if o.Bad == "" || o.Total == "" {
			return fmt.Errorf("telemetry: ratio_ceiling objective %s needs bad and total", o.Name)
		}
	default:
		return fmt.Errorf("telemetry: objective %s: unknown kind %q", o.Name, o.Kind)
	}
	return nil
}

// floor returns the good-fraction floor the objective enforces.
func (o Objective) floor() float64 {
	if o.Kind == KindRatioCeiling {
		return 1 - o.Target
	}
	return o.Target
}

// ParseObjectives decodes an SLO config: a JSON array of objectives.
func ParseObjectives(b []byte) ([]Objective, error) {
	var out []Objective
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("telemetry: bad SLO config: %v", err)
	}
	for i := range out {
		out[i] = out[i].withDefaults()
		if err := out[i].validate(); err != nil {
			return nil, err
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("telemetry: empty SLO config")
	}
	return out, nil
}

// DefaultObjectives are the out-of-the-box aqpd objectives: latency,
// audit CI coverage, contract hold-rate, and degradation rate — the four
// signals the paper's no-silver-bullet thesis says an operator must
// watch to trust an AQP deployment. The coverage floor matches the audit
// lane's error-budget band lower edge, and the hold-rate floor is the
// typical contracted confidence.
func DefaultObjectives() []Objective {
	objs := []Objective{
		{Name: "latency_p99", Kind: KindLatency,
			Hist: "query_latency_seconds", ThresholdMS: 1000, Target: 0.99},
		{Name: "audit_coverage", Kind: KindRatioFloor,
			Good: "audit_covered_total", Total: "audit_covered_total+audit_missed_total", Target: 0.93},
		{Name: "contract_hold", Kind: KindRatioFloor,
			Good: "audit_contract_held_total", Total: "audit_contract_held_total+audit_contract_broken_total", Target: 0.95},
		{Name: "degradation_rate", Kind: KindRatioCeiling,
			Bad: "queries_degraded_total", Total: "queries_total", Target: 0.05},
	}
	for i := range objs {
		objs[i] = objs[i].withDefaults()
	}
	return objs
}

// WindowStatus is one burn-rate window's evaluation.
type WindowStatus struct {
	Window Duration `json:"window"`
	// Events is the total event count observed in the window.
	Events float64 `json:"events"`
	// GoodRatio is the good fraction in the window (1 when no events).
	GoodRatio float64 `json:"good_ratio"`
	// Burn is the burn rate: (1-GoodRatio)/(1-floor). 1.0 consumes the
	// error budget exactly at the sustainable pace.
	Burn float64 `json:"burn"`
}

// ObjectiveStatus is one objective's evaluated state.
type ObjectiveStatus struct {
	Objective Objective    `json:"objective"`
	Fast      WindowStatus `json:"fast"`
	Slow      WindowStatus `json:"slow"`
	// BudgetRemaining is the error budget left over the slow window:
	// 1 - Slow.Burn (negative = overdrawn), capped at 1.
	BudgetRemaining float64 `json:"budget_remaining"`
	// State is "warming" (not enough data), "ok", "burning" (budget
	// consumed faster than sustainable), or "fast_burn" (both windows
	// over the FastBurn threshold — page, dump the flight recorder).
	State string `json:"state"`
}

// SLO evaluates a fixed set of objectives against a Store and
// edge-detects fast burns.
type SLO struct {
	store *SLOStoreRef
	objs  []Objective

	mu      sync.Mutex
	burning map[string]bool // objectives currently in fast_burn
	last    []ObjectiveStatus
	onFast  func(ObjectiveStatus)
}

// SLOStoreRef is the slice of the Store API the engine needs (it keeps
// the engine testable against synthetic edges).
type SLOStoreRef struct {
	Edges func(d time.Duration) (old, latest Sample, ok bool)
}

// NewSLO builds the engine over a store, which it grows to retain the
// longest objective window. onFastBurn (optional) fires once per
// objective each time it *enters* the fast_burn state.
func NewSLO(store *Store, objs []Objective, onFastBurn func(ObjectiveStatus)) *SLO {
	if len(objs) == 0 {
		objs = DefaultObjectives()
	}
	withDefaults := make([]Objective, len(objs))
	for i, o := range objs {
		o = o.withDefaults()
		withDefaults[i] = o
		store.retain(time.Duration(max(o.FastWindow, o.SlowWindow)))
	}
	return &SLO{
		store:   &SLOStoreRef{Edges: store.WindowEdges},
		objs:    withDefaults,
		burning: make(map[string]bool),
		onFast:  onFastBurn,
	}
}

// Objectives returns the configured objectives.
func (e *SLO) Objectives() []Objective { return e.objs }

// Last returns the most recent evaluation (nil before the first). It is
// stored before fast-burn callbacks fire, so a flight dump triggered by
// a callback sees the statuses that caused it.
func (e *SLO) Last() []ObjectiveStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.last
}

// goodTotal extracts (good, total) event counts for the objective from
// the delta between two samples.
func (o Objective) goodTotal(old, latest Sample) (good, total float64) {
	switch o.Kind {
	case KindLatency:
		ho, _ := FamilyHistSum(old.Hists, o.Hist)
		hn, ok := FamilyHistSum(latest.Hists, o.Hist)
		if !ok {
			return 0, 0
		}
		d := DeltaHist(ho, hn)
		return HistCumAt(d, o.ThresholdMS/1000), d.Count
	case KindRatioCeiling:
		total = FamilySum(latest.Counters, o.Total) - FamilySum(old.Counters, o.Total)
		bad := FamilySum(latest.Counters, o.Bad) - FamilySum(old.Counters, o.Bad)
		return total - bad, total
	default: // ratio_floor
		total = FamilySum(latest.Counters, o.Total) - FamilySum(old.Counters, o.Total)
		good = FamilySum(latest.Counters, o.Good) - FamilySum(old.Counters, o.Good)
		return good, total
	}
}

// window evaluates one burn-rate window.
func (o Objective) window(d time.Duration, edges func(time.Duration) (Sample, Sample, bool)) WindowStatus {
	ws := WindowStatus{Window: Duration(d), GoodRatio: 1}
	old, latest, ok := edges(d)
	if !ok {
		return ws
	}
	good, total := o.goodTotal(old, latest)
	ws.Events = total
	if total <= 0 {
		return ws
	}
	ratio := good / total
	if ratio < 0 {
		ratio = 0
	}
	if ratio > 1 {
		ratio = 1
	}
	ws.GoodRatio = ratio
	budget := 1 - o.floor()
	if budget <= 0 {
		budget = math.SmallestNonzeroFloat64
	}
	ws.Burn = (1 - ratio) / budget
	return ws
}

// Evaluate computes every objective's status against the store and fires
// the fast-burn callback for objectives that just entered fast_burn.
func (e *SLO) Evaluate() []ObjectiveStatus {
	out := make([]ObjectiveStatus, 0, len(e.objs))
	var fired []ObjectiveStatus
	e.mu.Lock()
	for _, o := range e.objs {
		st := ObjectiveStatus{
			Objective: o,
			Fast:      o.window(time.Duration(o.FastWindow), e.store.Edges),
			Slow:      o.window(time.Duration(o.SlowWindow), e.store.Edges),
		}
		st.BudgetRemaining = 1 - st.Slow.Burn
		if st.BudgetRemaining > 1 {
			st.BudgetRemaining = 1
		}
		switch {
		case st.Fast.Events < o.MinEvents && st.Slow.Events < o.MinEvents:
			st.State = "warming"
		case st.Fast.Burn >= o.FastBurn && st.Slow.Burn >= o.FastBurn &&
			st.Fast.Events >= o.MinEvents:
			st.State = "fast_burn"
		case st.Fast.Burn >= 1:
			st.State = "burning"
		default:
			st.State = "ok"
		}
		entering := st.State == "fast_burn" && !e.burning[o.Name]
		e.burning[o.Name] = st.State == "fast_burn"
		if entering && e.onFast != nil {
			fired = append(fired, st)
		}
		out = append(out, st)
	}
	e.last = out
	e.mu.Unlock()
	// Fire outside the lock: the callback dumps the flight recorder,
	// which must be free to read telemetry state.
	for _, st := range fired {
		e.onFast(st)
	}
	return out
}
