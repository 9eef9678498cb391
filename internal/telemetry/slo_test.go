package telemetry

import (
	"strings"
	"testing"
	"time"
)

// edgesFor fabricates a WindowEdges func returning a fixed pair.
func edgesFor(old, latest Sample) func(time.Duration) (Sample, Sample, bool) {
	return func(time.Duration) (Sample, Sample, bool) { return old, latest, true }
}

func newTestSLO(objs []Objective, edges func(time.Duration) (Sample, Sample, bool), onFast func(ObjectiveStatus)) *SLO {
	e := NewSLO(NewStore(StoreConfig{Collect: func() Sample { return Sample{} }}), objs, onFast)
	e.store = &SLOStoreRef{Edges: edges}
	return e
}

func TestParseObjectives(t *testing.T) {
	cfg := `[
	  {"name": "lat", "kind": "latency", "hist": "query_latency_seconds",
	   "threshold_ms": 500, "target": 0.99, "fast_window": "2m"},
	  {"name": "cov", "kind": "ratio_floor", "good": "a_total", "total": "b_total", "target": 0.9}
	]`
	objs, err := ParseObjectives([]byte(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("parsed %d objectives", len(objs))
	}
	if time.Duration(objs[0].FastWindow) != 2*time.Minute {
		t.Fatalf("fast_window = %v", objs[0].FastWindow)
	}
	if time.Duration(objs[0].SlowWindow) != time.Hour {
		t.Fatalf("slow_window default = %v", objs[0].SlowWindow)
	}
	if objs[0].FastBurn != 14 {
		t.Fatalf("fast_burn default = %g", objs[0].FastBurn)
	}

	bad := []string{
		`[]`,
		`[{"name": "", "kind": "latency", "hist": "h", "threshold_ms": 1, "target": 0.5}]`,
		`[{"name": "x", "kind": "latency", "target": 0.5}]`,
		`[{"name": "x", "kind": "ratio_floor", "good": "g", "total": "t", "target": 1.5}]`,
		`[{"name": "x", "kind": "nope", "target": 0.5}]`,
		`[{"name": "x", "kind": "ratio_ceiling", "total": "t", "target": 0.5}]`,
		`[{"name": "x", "kind": "latency", "hist": "query_latency_ms", "threshold_ms": 1, "target": 0.5}]`,
	}
	for _, b := range bad {
		if _, err := ParseObjectives([]byte(b)); err == nil {
			t.Fatalf("ParseObjectives accepted %s", b)
		}
	}
	// A millisecond histogram names the family latency is recorded in.
	_, err = ParseObjectives([]byte(bad[len(bad)-1]))
	if !strings.Contains(err.Error(), "query_latency_seconds") {
		t.Fatalf("ms hist refused with %q, want it to name query_latency_seconds", err)
	}
}

func TestDefaultObjectivesValid(t *testing.T) {
	for _, o := range DefaultObjectives() {
		if err := o.validate(); err != nil {
			t.Errorf("default objective %s invalid: %v", o.Name, err)
		}
	}
}

func TestSLORatioFloorStates(t *testing.T) {
	obj := Objective{Name: "cov", Kind: KindRatioFloor,
		Good: "good_total", Total: "total_total", Target: 0.9, MinEvents: 5}

	mk := func(good, total float64) (Sample, Sample) {
		t0 := time.Unix(1000, 0)
		return Sample{T: t0, Counters: map[string]float64{"good_total": 0, "total_total": 0}},
			Sample{T: t0.Add(5 * time.Minute), Counters: map[string]float64{"good_total": good, "total_total": total}}
	}

	// Too few events: warming.
	old, latest := mk(1, 2)
	st := newTestSLO([]Objective{obj}, edgesFor(old, latest), nil).Evaluate()[0]
	if st.State != "warming" {
		t.Fatalf("state = %s, want warming", st.State)
	}

	// 100% good: ok, full budget.
	old, latest = mk(100, 100)
	st = newTestSLO([]Objective{obj}, edgesFor(old, latest), nil).Evaluate()[0]
	if st.State != "ok" || st.BudgetRemaining != 1 {
		t.Fatalf("healthy: state=%s budget=%g", st.State, st.BudgetRemaining)
	}

	// 85% good against a 0.9 floor: burn = 0.15/0.1 = 1.5 → burning.
	old, latest = mk(85, 100)
	st = newTestSLO([]Objective{obj}, edgesFor(old, latest), nil).Evaluate()[0]
	if st.State != "burning" {
		t.Fatalf("state = %s, want burning (burn=%g)", st.State, st.Fast.Burn)
	}

	// 0% good: burn = 10 < 14 → still burning, not fast_burn.
	old, latest = mk(0, 100)
	st = newTestSLO([]Objective{obj}, edgesFor(old, latest), nil).Evaluate()[0]
	if st.State != "burning" {
		t.Fatalf("state = %s, want burning", st.State)
	}
	if st.BudgetRemaining >= 0 {
		t.Fatalf("budget remaining %g, want negative (overdrawn)", st.BudgetRemaining)
	}
}

func TestSLOFastBurnEdgeTriggered(t *testing.T) {
	// Ceiling 0.05 exceeded massively: 50% bad → burn = 0.5/0.05 = 10…
	// use a tighter ceiling so burn clears 14: 0.02 → burn 25.
	obj := Objective{Name: "deg", Kind: KindRatioCeiling,
		Bad: "bad_total", Total: "total_total", Target: 0.02}
	t0 := time.Unix(1000, 0)
	old := Sample{T: t0, Counters: map[string]float64{"bad_total": 0, "total_total": 0}}
	latest := Sample{T: t0.Add(5 * time.Minute), Counters: map[string]float64{"bad_total": 50, "total_total": 100}}

	var fired []string
	e := newTestSLO([]Objective{obj}, edgesFor(old, latest),
		func(st ObjectiveStatus) { fired = append(fired, st.Objective.Name) })

	st := e.Evaluate()[0]
	if st.State != "fast_burn" {
		t.Fatalf("state = %s, want fast_burn (fast burn=%g slow burn=%g)", st.State, st.Fast.Burn, st.Slow.Burn)
	}
	e.Evaluate()
	e.Evaluate()
	if len(fired) != 1 {
		t.Fatalf("fast-burn callback fired %d times, want 1 (edge-triggered)", len(fired))
	}

	// Recovery then relapse fires again.
	healthy := Sample{T: t0.Add(10 * time.Minute), Counters: map[string]float64{"bad_total": 50, "total_total": 10100}}
	e.store = &SLOStoreRef{Edges: edgesFor(old, healthy)}
	if st := e.Evaluate()[0]; st.State == "fast_burn" {
		t.Fatalf("still fast_burn after recovery (burn=%g)", st.Fast.Burn)
	}
	e.store = &SLOStoreRef{Edges: edgesFor(old, latest)}
	e.Evaluate()
	if len(fired) != 2 {
		t.Fatalf("relapse: callback fired %d times total, want 2", len(fired))
	}
}

func TestSLOLatencyObjective(t *testing.T) {
	// Latency histogram in seconds, threshold 100ms: 90 of 100 obs ≤ 0.1 s.
	obj := Objective{Name: "lat", Kind: KindLatency,
		Hist: "query_latency_seconds", ThresholdMS: 100, Target: 0.95}
	t0 := time.Unix(1000, 0)
	old := Sample{T: t0, Hists: map[string]Hist{
		`query_latency_seconds{technique="exact"}`: {Bounds: []float64{0.1, 0.5}, Cum: []float64{0, 0, 0}},
	}}
	latest := Sample{T: t0.Add(5 * time.Minute), Hists: map[string]Hist{
		`query_latency_seconds{technique="exact"}`: {Bounds: []float64{0.1, 0.5}, Cum: []float64{90, 100, 100}, Count: 100},
	}}
	st := newTestSLO([]Objective{obj}, edgesFor(old, latest), nil).Evaluate()[0]
	if st.Fast.Events != 100 {
		t.Fatalf("events = %g, want 100", st.Fast.Events)
	}
	if st.Fast.GoodRatio != 0.9 {
		t.Fatalf("good ratio = %g, want 0.9", st.Fast.GoodRatio)
	}
	// Burn = 0.1/0.05 = 2 → burning.
	if st.State != "burning" {
		t.Fatalf("state = %s, want burning", st.State)
	}
}

func TestDurationJSON(t *testing.T) {
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"90s"`)); err != nil || time.Duration(d) != 90*time.Second {
		t.Fatalf("string form: %v %v", d, err)
	}
	if err := d.UnmarshalJSON([]byte(`30`)); err != nil || time.Duration(d) != 30*time.Second {
		t.Fatalf("numeric form: %v %v", d, err)
	}
	if err := d.UnmarshalJSON([]byte(`"soon"`)); err == nil {
		t.Fatal("accepted bad duration")
	}
	b, err := Duration(5 * time.Minute).MarshalJSON()
	if err != nil || !strings.Contains(string(b), "5m") {
		t.Fatalf("marshal: %s %v", b, err)
	}
}

// TestSlowWindowSpansWhatItReports: over aqpd's default store (15m of 10s
// samples) and the default objectives, the slow window's edges span the
// full hour once an hour of samples exists — not the 15 minutes the
// store's own window keeps.
func TestSlowWindowSpansWhatItReports(t *testing.T) {
	const step = 10 * time.Second
	clk := &fakeClock{t: time.Unix(1000, 0)}
	var next Sample
	store := NewStore(StoreConfig{Step: step, Window: 15 * time.Minute, Collect: func() Sample { return next }})
	for _, o := range NewSLO(store, nil, nil).Objectives() {
		if time.Duration(o.SlowWindow) != time.Hour {
			t.Fatalf("%s: slow window %v, want the 1h default", o.Name, o.SlowWindow)
		}
	}
	for i := 0; i <= 2*int(time.Hour/step); i++ {
		next = clk.sample(step, 1)
		store.Snap()
		if i == 0 {
			continue
		}
		old, latest, _ := store.WindowEdges(time.Hour)
		if got, want := latest.T.Sub(old.T), min(time.Duration(i)*step, time.Hour); got != want {
			t.Fatalf("after %d steps: slow edges span %v, want %v", i, got, want)
		}
	}
}
