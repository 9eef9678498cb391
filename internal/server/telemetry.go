package server

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/insight"
	"repro/internal/sqlparse"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// initTelemetry wires the observability layer when Config.Telemetry is
// set: flight recorder, span exporter, time-series store, and SLO
// engine. The store's cadence ticker is NOT started here — cmd/aqpd
// starts it; tests drive Snap explicitly for determinism.
func (s *Server) initTelemetry(cfg Config) {
	s.flight = telemetry.NewRecorder(telemetry.RecorderConfig{Queries: cfg.FlightQueries})
	s.spans = telemetry.NewSpanExporter("aqpd", 0)
	s.flightSink = cfg.FlightSink
	s.tstore = telemetry.NewStore(telemetry.StoreConfig{
		Step:    cfg.TelemetryStep,
		Window:  cfg.TelemetryWindow,
		Collect: s.collectSample,
		// Every stored sample re-evaluates the objectives, so fast-burn
		// detection latency is one snapshot step.
		OnSnap: func(telemetry.Sample) { s.evalSLO() },
	})
	s.slo = telemetry.NewSLO(s.tstore, cfg.Objectives, s.onFastBurn)
	s.initInsight(cfg)
	// Process-global fault-fire feed. Installed only when telemetry is
	// on so chaos tests without telemetry see the bare injection path.
	flight := s.flight
	fault.SetOnFire(func(point string, kind fault.Kind) {
		flight.AddEvent(telemetry.Event{
			Kind: "fault_fire", Name: point, Detail: kind.String(), Shard: -1,
		})
	})
}

// TelemetryStore returns the time-series store (nil when telemetry is
// disabled). cmd/aqpd starts its cadence ticker; tests drive Snap.
func (s *Server) TelemetryStore() *telemetry.Store { return s.tstore }

// FlightBundle assembles a flight-recorder dump with current SLO
// statuses and build identity attached.
func (s *Server) FlightBundle(reason string) telemetry.Bundle {
	b := s.flight.Snapshot(reason)
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

// collectSample is the store's collector: one registry copy plus the
// instantaneous gauges.
func (s *Server) collectSample() telemetry.Sample {
	gauges := map[string]float64{
		"queue_depth": float64(s.adm.QueueDepth()),
		"in_flight":   float64(s.adm.InFlight()),
	}
	if s.aud != nil {
		gauges["audit_backlog"] = float64(s.aud.Report().Backlog)
	}
	if s.insight != nil {
		gauges["workload_fingerprints"] = float64(s.insight.Len())
	}
	return s.met.TelemetrySample(gauges)
}

// evalSLO re-evaluates every objective; the engine caches the statuses
// for the /metrics gauges and bundle dumps.
func (s *Server) evalSLO() {
	if s.slo == nil {
		return
	}
	s.slo.Evaluate()
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
		name := EscapeLabelValue(o.Objective.Name)
		out[fmt.Sprintf(`slo_burn_rate{objective="%s",window="fast"}`, name)] = o.Fast.Burn
		out[fmt.Sprintf(`slo_burn_rate{objective="%s",window="slow"}`, name)] = o.Slow.Burn
		out[fmt.Sprintf(`slo_error_budget_remaining{objective="%s"}`, name)] = o.BudgetRemaining
	}
	return out
}

// onFastBurn is the SLO engine's edge-triggered page: dump the flight
// recorder so the postmortem record is captured while the offending
// queries are still in the rings.
func (s *Server) onFastBurn(st telemetry.ObjectiveStatus) {
	s.met.Inc(Key("slo_fast_burn_total", "objective", st.Objective.Name))
	s.cfg.Logger.Error("SLO fast burn",
		"objective", st.Objective.Name,
		"fast_burn", st.Fast.Burn, "slow_burn", st.Slow.Burn,
		"budget_remaining", st.BudgetRemaining)
	b := s.FlightBundle("slo_fast_burn:" + st.Objective.Name)
	if s.flightSink != nil {
		s.flightSink(b)
	}
}

// onBreakerTransition files every circuit-breaker state change as a
// flight event. Installed on every breaker at construction; a nil flight
// recorder (telemetry off) makes it a no-op.
func (s *Server) onBreakerTransition(engine string, from, to fault.BreakerState) {
	if s.flight == nil {
		return
	}
	s.flight.AddEvent(telemetry.Event{
		Kind: "breaker", Name: engine,
		Detail: from.String() + "->" + to.String(), Shard: -1,
	})
}

// Served is one executed statement as the post-serve observers see it: the
// one derivation, from a result, of the workload observation and the flight
// record that aqpd's handler and aqpsh's session both file.
type Served struct {
	Start     time.Time
	LatencyMS float64
	SQL, Mode string
	// Stmt is nil when the SQL did not parse; Res is nil when the query
	// failed, Err then says why and Status how it was answered.
	Stmt   *sqlparse.SelectStmt
	Res    *core.Result
	Err    error
	Status int
}

// Observation is what the workload-insight registry files.
func (q Served) Observation() insight.Observation {
	if q.Res == nil {
		return insight.Observation{LatencyMS: q.LatencyMS, Err: true}
	}
	d := &q.Res.Diagnostics
	return insight.Observation{
		Technique:       string(q.Res.Technique),
		LatencyMS:       q.LatencyMS,
		RowsScanned:     d.Counters.RowsScanned,
		RelWidth:        q.Res.MaxRelHalfWidth(),
		Approximate:     q.Res.Guarantee != core.GuaranteeExact,
		Degraded:        d.Degraded,
		Extrapolated:    d.Shards != nil && d.Shards.Extrapolated,
		Partial:         d.Partial,
		ContractVerdict: q.contractVerdict(),
	}
}

// Record is what the flight recorder files.
func (q Served) Record() telemetry.QueryRecord {
	qr := telemetry.QueryRecord{Start: q.Start, SQL: q.SQL, Mode: q.Mode,
		Status: q.Status, LatencyMS: q.LatencyMS}
	if q.Stmt != nil {
		qr.Fingerprint = q.Stmt.Fingerprint().Hash
	}
	if q.Res == nil {
		qr.Err = q.Err.Error()
		return qr
	}
	d := &q.Res.Diagnostics
	qr.Technique, qr.RowsScanned = string(q.Res.Technique), d.Counters.RowsScanned
	qr.Degraded, qr.Partial, qr.ContractVerdict = d.Degraded, d.Partial, q.contractVerdict()
	return qr
}

func (q Served) contractVerdict() string {
	if c := q.Res.Diagnostics.Contract; c != nil {
		return string(c.Verdict)
	}
	return ""
}

// recordQuery files one completed (or failed) query with the flight
// recorder and exports its spans. prof may be nil (tracing off).
func (s *Server) recordQuery(qr telemetry.QueryRecord, prof *trace.Profile) {
	if s.flight == nil {
		return
	}
	if prof != nil {
		qr.Spans = prof
		qr.TraceID = prof.TraceID
		s.spans.Export(prof)
	}
	s.flight.Record(qr)
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
	// "q:family" spec (?quantile=0.99:query_latency_ms).
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
			writeError(w, http.StatusBadRequest, "bad quantile %q (want q:family, e.g. 0.99:query_latency_ms)", spec)
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
	if s.flight == nil {
		writeError(w, http.StatusNotFound, "telemetry disabled (start aqpd with -telemetry)")
		return
	}
	writeJSON(w, http.StatusOK, s.FlightBundle("http"))
}

// handleSpans serves the OTLP-shaped span export feed.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.spans == nil {
		writeError(w, http.StatusNotFound, "telemetry disabled (start aqpd with -telemetry)")
		return
	}
	writeJSON(w, http.StatusOK, s.spans.Feed())
}
