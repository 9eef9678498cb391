package server

import (
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// initTelemetry wires the time-series store and SLO engine (the flight
// recorder and workload insight live in the Observers).
// The store's cadence ticker is NOT started here — cmd/aqpd starts it;
// tests drive Snap explicitly for determinism.
func (s *Server) initTelemetry(cfg Config) {
	s.tstore = telemetry.NewStore(telemetry.StoreConfig{
		Step:    cfg.TelemetryStep,
		Window:  cfg.TelemetryWindow,
		Collect: s.readings,
		// Every stored sample re-evaluates the objectives (the engine caches
		// the statuses for the /metrics gauges and bundle dumps), so
		// fast-burn detection latency is one snapshot step.
		OnSnap: func(telemetry.Sample) { s.slo.Evaluate() },
	})
	s.slo = telemetry.NewSLO(s.tstore, cfg.Objectives, s.onFastBurn)
}

// TelemetryStore returns the time-series store (nil when telemetry is
// disabled). cmd/aqpd starts its cadence ticker; tests drive Snap.
func (s *Server) TelemetryStore() *telemetry.Store { return s.tstore }

// FlightBundle assembles a flight-recorder dump with current SLO
// statuses and build identity attached.
func (s *Server) FlightBundle(reason string) telemetry.Bundle {
	b := s.obs.flight.Snapshot(reason)
	if s.slo != nil {
		b.SLO = s.slo.Last()
		if len(b.SLO) == 0 {
			// Dump requested before the first snapshot cadence (e.g. an
			// early SIGQUIT): evaluate on demand so the bundle still
			// carries SLO state. Safe even from the fast-burn callback —
			// that path always has a cached evaluation.
			b.SLO = s.slo.Evaluate()
		}
	}
	b.Info = BuildInfo()
	return b
}

// sloGauges renders the last-evaluated objective statuses as float
// gauge families.
func (s *Server) sloGauges() map[string]float64 {
	if s.slo == nil {
		return nil
	}
	st := s.slo.Last()
	if len(st) == 0 {
		return nil
	}
	out := make(map[string]float64, 3*len(st))
	for _, o := range st {
		name := o.Objective.Name
		out[Key("slo_burn_rate", "objective", name, "window", "fast")] = o.Fast.Burn
		out[Key("slo_burn_rate", "objective", name, "window", "slow")] = o.Slow.Burn
		out[Key("slo_error_budget_remaining", "objective", name)] = o.BudgetRemaining
	}
	return out
}

// onFastBurn is the SLO engine's edge-triggered page: dump the flight
// recorder so the postmortem record is captured while the offending
// queries are still in the rings.
func (s *Server) onFastBurn(st telemetry.ObjectiveStatus) {
	s.obs.met.Inc(Key("slo_fast_burn_total", "objective", st.Objective.Name))
	s.cfg.Logger.Error("SLO fast burn",
		"objective", st.Objective.Name,
		"fast_burn", st.Fast.Burn, "slow_burn", st.Slow.Burn,
		"budget_remaining", st.BudgetRemaining)
	b := s.FlightBundle("slo_fast_burn:" + st.Objective.Name)
	if s.cfg.FlightSink != nil {
		s.cfg.FlightSink(b)
	}
}

// HistoryPoint is one derived time-series point.
type HistoryPoint struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// HistoryResponse is the body of GET /metrics/history.
type HistoryResponse struct {
	Window string `json:"window"`
	Step   string `json:"step"`
	// Samples are the raw snapshots, oldest first.
	Samples []telemetry.Sample `json:"samples"`
	// Rates are per-second counter-family rates between consecutive
	// samples, keyed by the requested family (?rate=queries_total).
	Rates map[string][]HistoryPoint `json:"rates,omitempty"`
	// Quantiles are per-step histogram quantiles of the observations
	// made between consecutive samples, keyed by the requested
	// "q:family" spec (?quantile=0.99:query_latency_seconds).
	Quantiles map[string][]HistoryPoint `json:"quantiles,omitempty"`
}

// handleMetricsHistory serves windowed metric history with server-side
// rate and quantile-over-time derivations.
func (s *Server) handleMetricsHistory(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.tstore == nil {
		writeError(w, http.StatusNotFound, "telemetry disabled (start aqpd with -telemetry)")
		return
	}
	q := r.URL.Query()
	window := s.tstore.Window()
	if v := q.Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, "bad window %q", v)
			return
		}
		window = d
	}
	step := s.tstore.Step()
	if v := q.Get("step"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, "bad step %q", v)
			return
		}
		step = d
	}
	samples := s.tstore.History(window, step)
	resp := HistoryResponse{
		Window:  window.String(),
		Step:    step.String(),
		Samples: samples,
	}
	for _, fam := range q["rate"] {
		pts := make([]HistoryPoint, 0, len(samples))
		for i := 1; i < len(samples); i++ {
			pts = append(pts, HistoryPoint{T: samples[i].T, V: telemetry.Rate(samples[i-1], samples[i], fam)})
		}
		if resp.Rates == nil {
			resp.Rates = map[string][]HistoryPoint{}
		}
		resp.Rates[fam] = pts
	}
	for _, spec := range q["quantile"] {
		qv, fam, ok := parseQuantileSpec(spec)
		if !ok {
			writeError(w, http.StatusBadRequest, "bad quantile %q (want q:family, e.g. 0.99:query_latency_seconds)", spec)
			return
		}
		pts := make([]HistoryPoint, 0, len(samples))
		for i := 1; i < len(samples); i++ {
			older, _ := telemetry.FamilyHistSum(samples[i-1].Hists, fam)
			newer, found := telemetry.FamilyHistSum(samples[i].Hists, fam)
			if !found {
				continue
			}
			d := telemetry.DeltaHist(older, newer)
			v := telemetry.HistQuantile(d, qv)
			if math.IsNaN(v) {
				// No observations in this step: omit the point rather
				// than emit NaN, which JSON cannot carry.
				continue
			}
			pts = append(pts, HistoryPoint{T: samples[i].T, V: v})
		}
		if resp.Quantiles == nil {
			resp.Quantiles = map[string][]HistoryPoint{}
		}
		resp.Quantiles[spec] = pts
	}
	writeJSON(w, http.StatusOK, resp)
}

func parseQuantileSpec(spec string) (q float64, family string, ok bool) {
	i := strings.IndexByte(spec, ':')
	if i <= 0 || i == len(spec)-1 {
		return 0, "", false
	}
	q, err := strconv.ParseFloat(spec[:i], 64)
	if err != nil || q < 0 || q > 1 {
		return 0, "", false
	}
	return q, spec[i+1:], true
}

// SLOResponse is the body of GET /slo.
type SLOResponse struct {
	EvaluatedAt time.Time                   `json:"evaluated_at"`
	Objectives  []telemetry.ObjectiveStatus `json:"objectives"`
}

// handleSLO serves a fresh evaluation of every objective.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.slo == nil {
		writeError(w, http.StatusNotFound, "telemetry disabled (start aqpd with -telemetry)")
		return
	}
	st := s.slo.Evaluate()
	writeJSON(w, http.StatusOK, SLOResponse{EvaluatedAt: time.Now(), Objectives: st})
}

// handleFlightRecord dumps the flight recorder on demand.
func (s *Server) handleFlightRecord(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.obs.flight == nil {
		writeError(w, http.StatusNotFound, "telemetry disabled (start aqpd with -telemetry)")
		return
	}
	writeJSON(w, http.StatusOK, s.FlightBundle("http"))
}

// handleSpans serves the span trees of the flight recorder's queries as
// an OTLP-shaped feed.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.obs.flight == nil {
		writeError(w, http.StatusNotFound, "telemetry disabled (start aqpd with -telemetry)")
		return
	}
	writeJSON(w, http.StatusOK, telemetry.Feed("aqpd", s.obs.flight.Snapshot("spans").Queries))
}
