// Package server exposes an aqp.DB as a concurrent HTTP/JSON query
// service: POST /query with an error spec, GET /tables, POST
// /samples/build, GET /metrics, GET /healthz. Concurrency is governed by
// a bounded worker pool with a bounded wait queue (overflow is shed with
// 429), every query runs under a deadline plumbed through the engines
// via context, and online aggregation degrades gracefully — at the
// deadline it returns its best progressive estimate instead of an error.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	aqp "repro"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/sample"
	"repro/internal/shard"
	"repro/internal/sqlparse"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config tunes the service.
type Config struct {
	// Workers is the maximum number of concurrently executing queries
	// (default 4).
	Workers int
	// QueueCap is the maximum number of queries waiting for a worker
	// before new arrivals are shed (default 2*Workers).
	QueueCap int
	// DefaultTimeout bounds queries that specify none (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts (default 5m).
	MaxTimeout time.Duration
	// MaxQueryWorkers caps the per-query morsel-parallel worker count so
	// that Workers concurrent queries cannot oversubscribe the machine:
	// the default is max(1, GOMAXPROCS/Workers). Requests asking for more
	// are clamped, not rejected.
	MaxQueryWorkers int
	// Logger receives the structured query log (nil discards it).
	// Completed queries log at Debug, slow queries and failures at Warn.
	Logger *slog.Logger
	// SlowQuery is the latency at or above which a completed query is
	// logged at Warn instead of Debug (default 1s).
	SlowQuery time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// server's handler tree. Off by default: profiles expose internals,
	// so production deployments should gate them deliberately.
	EnablePprof bool
	// AuditFraction is the fraction of served approximate queries whose
	// claimed confidence intervals are re-checked against an exact
	// ground-truth execution in an idle-capacity background lane. 0 (the
	// default) disables continuous accuracy auditing.
	AuditFraction float64
	// AuditQueueCap bounds the audit backlog (default 64); overflow sheds
	// the oldest pending audit.
	AuditQueueCap int
	// AuditWindow sizes the rolling coverage/error windows (default 256).
	AuditWindow int
	// AuditSeed drives the deterministic audit-sampling decisions.
	AuditSeed int64
	// DegradeBudget is the per-rung time budget of the graceful-
	// degradation ladder: when the requested engine fails or times out,
	// each fallback technique gets this long to produce a best-effort
	// estimate (default 500ms; negative disables degradation).
	DegradeBudget time.Duration
	// BreakerThreshold is the consecutive engine-fault count that trips
	// an engine's circuit breaker (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before
	// granting a half-open probe (default 5s).
	BreakerCooldown time.Duration
	// Telemetry enables the observability layer: the metric time-series
	// store (GET /metrics/history), the SLO engine (GET /slo), the
	// flight recorder (GET /debug/flightrecord), and the OTLP-shaped
	// span export feed (GET /debug/spans). When enabled, every query is
	// traced (observationally — results are bit-identical) so the
	// flight recorder retains span trees.
	Telemetry bool
	// TelemetryStep is the time-series snapshot cadence (default 10s).
	TelemetryStep time.Duration
	// TelemetryWindow is the time-series retention window (default 15m).
	TelemetryWindow time.Duration
	// FlightQueries sizes the flight recorder's query rings (default 64).
	FlightQueries int
	// Objectives overrides the default SLO set (nil = DefaultObjectives).
	Objectives []telemetry.Objective
	// FlightSink, when non-nil, receives automatic flight-recorder
	// dumps (panic containment, SLO fast burn). cmd/aqpd writes them to
	// the -flight-dump path; tests capture them directly.
	FlightSink func(telemetry.Bundle)
	// WorkloadCap bounds the workload-insight fingerprint registry that
	// rides with telemetry: per-shape scorecards and regression
	// sentinels behind GET /workload. 0 takes the registry default
	// (256); negative disables workload insight even with telemetry on.
	WorkloadCap int
	// WorkloadWindow overrides the per-fingerprint sentinel half-window
	// (0 takes the registry default; exposed for tests, which need
	// small windows to trip sentinels deterministically).
	WorkloadWindow int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 2 * c.Workers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxQueryWorkers <= 0 {
		c.MaxQueryWorkers = runtime.GOMAXPROCS(0) / c.Workers
		if c.MaxQueryWorkers < 1 {
			c.MaxQueryWorkers = 1
		}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.SlowQuery <= 0 {
		c.SlowQuery = time.Second
	}
	if c.DegradeBudget == 0 {
		c.DegradeBudget = 500 * time.Millisecond
	}
	return c
}

// Server is the HTTP query service over one shared aqp.DB.
type Server struct {
	db    *aqp.DB
	cfg   Config
	adm   *Admission
	obs   *Observers                  // every post-serve sink
	brk   map[aqp.Mode]*fault.Breaker // per-mode circuit breakers, read-only map
	mux   *http.ServeMux
	start time.Time

	// Time series and objectives; nil when Config.Telemetry is off.
	tstore *telemetry.Store
	slo    *telemetry.SLO
}

// New builds a server over db.
func New(db *aqp.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		db:    db,
		cfg:   cfg,
		adm:   NewAdmission(cfg.Workers, cfg.QueueCap),
		obs:   NewObservers(cfg),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	if cfg.Telemetry {
		s.initTelemetry(cfg)
	}
	s.brk = newBreakers(cfg, s.obs.onBreakerTransition)
	// Ground truth runs through the exact path of the same DB; the
	// admission controller is the idle gate, so audits only borrow worker
	// slots the foreground is not using.
	s.obs.Attach(db, s.adm)
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/audit", s.handleAudit)
	s.mux.HandleFunc("/shards", s.handleShards)
	s.mux.HandleFunc("/tables", s.handleTables)
	s.mux.HandleFunc("/samples/build", s.handleBuildSamples)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/metrics/history", s.handleMetricsHistory)
	s.mux.HandleFunc("/slo", s.handleSLO)
	s.mux.HandleFunc("/workload", s.handleWorkload)
	s.mux.HandleFunc("/debug/flightrecord", s.handleFlightRecord)
	s.mux.HandleFunc("/debug/spans", s.handleSpans)
	s.mux.HandleFunc("/faults", s.handleFaults)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *Metrics { return s.obs.met }

// Admission returns the admission controller (exposed for tests and for
// gauge reporting).
func (s *Server) Admission() *Admission { return s.adm }

// Auditor returns the accuracy auditor, or nil when auditing is
// disabled (exposed for tests and CLI drains).
func (s *Server) Auditor() *audit.Auditor { return s.obs.aud }

// Shutdown stops admitting queries and waits for in-flight ones to
// drain, or until ctx expires. Pending audits are abandoned — they are
// best-effort telemetry, not client work.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.adm.Drain(ctx)
	if s.obs.aud != nil {
		s.obs.aud.Close()
	}
	if s.tstore != nil {
		s.tstore.Close()
		fault.SetOnFire(nil)
	}
	return err
}

// handleAudit serves the rolling accuracy-audit report.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.obs.aud == nil {
		writeJSON(w, http.StatusOK, audit.Report{Enabled: false})
		return
	}
	writeJSON(w, http.StatusOK, s.obs.aud.Report())
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// panicWriter tracks whether a response has started, so the handler's
// containment layer knows if a typed 500 can still be written.
type panicWriter struct {
	http.ResponseWriter
	wrote bool
}

func (p *panicWriter) WriteHeader(status int) {
	p.wrote = true
	p.ResponseWriter.WriteHeader(status)
}

func (p *panicWriter) Write(b []byte) (int, error) {
	p.wrote = true
	return p.ResponseWriter.Write(b)
}

// handleQuery admits, bounds, routes, and executes one query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// Last-resort containment: engines recover their own panics, but a
	// bug in the handler itself (or an injected server.query panic) must
	// poison only this request, never the process.
	pw := &panicWriter{ResponseWriter: w}
	w = pw
	var served Served
	defer func() {
		if rec := recover(); rec != nil {
			s.obs.met.Inc(Key("query_panics_total", "engine", "server"))
			served.Finish(nil, fault.AsError(rec)) // a 500
			s.obs.File(served)
			if !pw.wrote {
				writeError(w, served.Status, "%v", served.Err)
			}
			// A contained handler panic is exactly what the flight
			// recorder exists for: dump automatically, the panicked query
			// included.
			if s.obs.flight != nil && s.cfg.FlightSink != nil {
				s.cfg.FlightSink(s.FlightBundle("panic"))
			}
		}
	}()
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.SQL == "" {
		writeError(w, http.StatusBadRequest, "missing sql")
		return
	}
	mode, err := aqp.ParseMode(req.Mode)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	release, err := s.adm.Acquire(r.Context())
	switch {
	case errors.Is(err, ErrShed):
		s.obs.met.Inc("queries_shed_total")
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "overloaded: %d running, %d queued", s.adm.InFlight(), s.adm.QueueDepth())
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	case err != nil:
		// The client went away while queued.
		s.obs.met.Inc("queries_abandoned_total")
		writeError(w, http.StatusRequestTimeout, "canceled while queued: %v", err)
		return
	}
	defer release()

	// The request's one parse, after admission so shed and queued
	// requests cost none: the engines, every rung of the degradation
	// ladder, the auditor and the workload registry share this statement.
	served = Served{Start: time.Now(), SQL: req.SQL, Mode: req.Mode}
	served.Stmt, err = sqlparse.Parse(req.SQL)

	// Chaos seam: an injected panic here exercises the handler
	// containment above; an injected error takes the typed 503 path.
	if ierr := injectServerQuery.Inject(); ierr != nil {
		served.Finish(nil, ierr)
		s.obs.File(served)
		writeError(w, served.Status, "%v", served.Err)
		return
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Per-query parallelism: the admission slot is held for the whole
	// execution, so pool×workers is bounded by Workers*MaxQueryWorkers.
	workers := req.Workers
	if workers <= 0 || workers > s.cfg.MaxQueryWorkers {
		workers = s.cfg.MaxQueryWorkers
	}
	ctx = exec.ContextWithWorkers(ctx, workers)

	// Per-request tracing: install a tracer so engine/operator spans are
	// recorded, and embed the profile tree in the response. Tracing only
	// observes; traced results are bit-identical to untraced ones. With
	// telemetry on, every query is traced so the flight recorder retains
	// span trees; an inbound W3C traceparent header joins its trace, so
	// the query's spans carry the caller's trace ID.
	var tr *trace.Tracer
	if req.Trace || s.obs.flight != nil {
		tid, parentSpan, _ := trace.ParseTraceparent(r.Header.Get("traceparent"))
		tr = trace.NewWithParent("query", tid, parentSpan)
		ctx = trace.WithTracer(ctx, tr)
	}

	run := aqp.Request{Mode: mode, Contract: req.Contract}
	if req.RelError > 0 {
		run.Spec = core.ErrorSpec{RelError: req.RelError, Confidence: req.Confidence}
		if run.Spec.Confidence <= 0 {
			run.Spec.Confidence = core.DefaultErrorSpec.Confidence
		}
	}
	var res *core.Result
	if err == nil {
		res, served.DegradedFrom, err = s.executeResilient(ctx, r.Context(), served.Stmt, run, req.NoDegrade, workers)
	}
	served.Finish(res, err)
	if tr != nil {
		served.Profile = tr.Profile()
		w.Header().Set("traceparent", tr.Root().Traceparent())
	}
	s.obs.File(served)
	if served.Err != nil {
		writeError(w, served.Status, "%v", served.Err)
		return
	}

	resp := encodeResult(res)
	resp.DegradedFrom = served.DegradedFrom
	if prof := served.Profile; prof != nil {
		resp.TraceID = prof.TraceID
		if req.Trace {
			resp.Trace = prof
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ShardGroupStatus is one sharded table's shape plus live per-shard
// health, for GET /shards.
type ShardGroupStatus struct {
	shard.GroupSummary
	Health []shard.Health `json:"health"`
}

// handleShards reports every sharded table's layout and per-shard health
// (row counts, liveness, breaker state and trip counts).
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	m := s.db.Shards()
	out := []ShardGroupStatus{}
	for _, name := range m.Names() {
		g := m.Get(name)
		if g == nil {
			continue
		}
		out = append(out, ShardGroupStatus{GroupSummary: g.Summary(), Health: g.Health()})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTables lists catalog tables with schemas and stored samples.
func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	cat := s.db.Catalog()
	off := s.db.OfflineEngine()
	var out []TableInfo
	for _, name := range cat.Names() {
		t, err := cat.Table(name)
		if err != nil {
			continue // dropped between Names and Table
		}
		info := TableInfo{Name: name, Rows: t.NumRows(), Version: t.Version()}
		for _, def := range t.Schema() {
			info.Columns = append(info.Columns, ColumnInfo{Name: def.Name, Type: def.Type.String()})
		}
		info.Samples = sampleInfos(off, name)
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

func sampleInfos(off *core.OfflineEngine, table string) []SampleInfo {
	var out []SampleInfo
	for _, smp := range off.Samples(table) {
		out = append(out, SampleInfo{
			Name:  smp.Name,
			QCS:   smp.QCS,
			Rows:  smp.Rows,
			Rate:  smp.Rate,
			Cap:   smp.Cap,
			Fresh: smp.Fresh(off.Catalog),
		})
	}
	return out
}

// handleBuildSamples builds (and optionally profiles) offline samples.
func (s *Server) handleBuildSamples(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req BuildSamplesRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Table == "" {
		writeError(w, http.StatusBadRequest, "missing table")
		return
	}
	// Sample builds scan the base table — admit them like queries so
	// they cannot starve the worker pool either.
	release, err := s.adm.Acquire(r.Context())
	if err != nil {
		if errors.Is(err, ErrShed) {
			s.obs.met.Inc("queries_shed_total")
			writeError(w, http.StatusTooManyRequests, "overloaded")
			return
		}
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	defer release()

	if err := s.db.BuildOfflineSamples(req.Table, req.QCS); err != nil {
		s.obs.met.Inc("queries_errors_total")
		writeError(w, http.StatusBadRequest, "build samples: %v", err)
		return
	}
	if len(req.Profile) > 0 {
		if err := s.db.ProfileOffline(req.Profile...); err != nil {
			s.obs.met.Inc("queries_errors_total")
			writeError(w, http.StatusBadRequest, "profile: %v", err)
			return
		}
	}
	s.obs.met.Inc("samples_built_total")
	writeJSON(w, http.StatusOK, BuildSamplesResponse{
		Table:   req.Table,
		Samples: sampleInfos(s.db.OfflineEngine(), req.Table),
	})
}

// handleMetrics serves the metrics snapshot: JSON by default, Prometheus
// text exposition format with ?format=prom.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	gauges := s.gauges()
	gaugesF := s.sloGauges()
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.obs.met.WritePrometheus(w, gauges, gaugesF, BuildInfo())
		return
	}
	snap := s.obs.met.Snapshot(gauges)
	snap.GaugesF = gaugesF
	snap.Info = BuildInfo()
	writeJSON(w, http.StatusOK, snap)
}

// gauges reads every instantaneous gauge once: /metrics, its Prometheus
// form and the time-series collector all serve this one set.
func (s *Server) gauges() map[string]int64 {
	g := map[string]int64{
		"queue_depth":       int64(s.adm.QueueDepth()),
		"in_flight":         int64(s.adm.InFlight()),
		"workers":           int64(s.adm.Workers()),
		"queue_capacity":    int64(s.adm.QueueCap()),
		"max_query_workers": int64(s.cfg.MaxQueryWorkers),
		"uptime_seconds":    int64(time.Since(s.start).Seconds()),
	}
	for k, b := range s.brk {
		g[Key("engine_tripped", "engine", string(k))] = b01(b.State() != fault.BreakerClosed)
	}
	// The uniform sampler's kept-row memo is process-wide: its counts cover
	// every scan this process ran.
	kept := sample.KeptMemoStats()
	g["kept_memo_entries"] = int64(kept.Entries)
	g["kept_memo_evictions"] = kept.Evictions
	for outcome, n := range map[string]int64{"hit": kept.Hits, "miss": kept.Misses, "grow": kept.Grows} {
		g[Key("kept_memo_lookups", "outcome", outcome)] = n
	}
	if s.obs.insight != nil {
		g["workload_fingerprints"] = int64(s.obs.insight.Len())
	}
	if s.obs.aud != nil {
		rep := s.obs.aud.Report()
		g["audit_backlog"] = int64(rep.Backlog)
		for _, t := range rep.Tables {
			g[Key("sample_stale", "table", t.Table)] = b01(t.Stale)
		}
	}
	return g
}

func b01(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// handleHealthz reports liveness, drain state, and build identity.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.adm.Draining() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(w, status, map[string]any{
		"status":         state,
		"tables":         len(s.db.Catalog().Names()),
		"uptime_seconds": int64(time.Since(s.start).Seconds()),
		"build":          BuildInfo(),
	})
}
