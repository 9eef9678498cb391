package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	aqp "repro"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/insight"
	"repro/internal/shard"
	"repro/internal/sqlparse"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Observers are the sinks a served query is filed with: the metrics
// registry, the query log, the accuracy auditor, workload insight and the
// flight recorder, whose retained tracers /debug/spans renders when read.
// File is the one post-serve call of aqpd's handler and aqpsh's session
// alike; process events (audit verdicts, insight sentinels, fault fires,
// breaker transitions, shard outcomes) reach the same sinks through the on*
// methods.
type Observers struct {
	cfg     Config
	met     *Metrics
	aud     *audit.Auditor      // nil when Config.AuditFraction is 0
	insight *insight.Registry   // nil without telemetry or with a negative WorkloadCap
	flight  *telemetry.Recorder // nil without telemetry
}

// NewObservers builds the sinks cfg asks for. With Config.Telemetry it also
// installs the process-global fault-fire feed into the flight recorder (only
// then, so chaos tests without telemetry see the bare injection path).
func NewObservers(cfg Config) *Observers {
	cfg = cfg.withDefaults()
	o := &Observers{cfg: cfg, met: NewMetrics()}
	if cfg.Telemetry {
		o.flight = telemetry.NewRecorder(telemetry.RecorderConfig{Queries: cfg.FlightQueries})
		// Workload insight rides with telemetry (so the telemetry-overhead
		// gate covers its cost); a negative WorkloadCap opts out.
		if cfg.WorkloadCap >= 0 {
			o.insight = insight.New(insight.Config{Cap: cfg.WorkloadCap, OnEvent: o.onInsightEvent})
		}
		fault.SetOnFire(o.onFaultFire)
	}
	return o
}

// Attach points the observers at db: its shard outcomes feed the metrics
// and the flight timeline, and — when Config.AuditFraction is set — a fresh
// auditor re-executes its answers exactly, borrowing worker slots from gate
// (nil: no capacity gate). Any previous auditor is closed.
func (o *Observers) Attach(db *aqp.DB, gate audit.Gate) *audit.Auditor {
	db.Shards().SetObserver(o.onShardEvent)
	if o.aud != nil {
		o.aud.Close()
	}
	if o.cfg.AuditFraction > 0 {
		o.aud = audit.New(db, gate, audit.Config{
			Fraction: o.cfg.AuditFraction,
			QueueCap: o.cfg.AuditQueueCap,
			Window:   o.cfg.AuditWindow,
			Seed:     o.cfg.AuditSeed,
			Logger:   o.cfg.Logger,
			OnEvent:  o.onAuditEvent,
		})
	}
	return o.aud
}

// Metrics returns the metrics registry.
func (o *Observers) Metrics() *Metrics { return o.met }

// Flight returns the flight recorder (nil without telemetry).
func (o *Observers) Flight() *telemetry.Recorder { return o.flight }

// Insight returns the workload-insight registry (nil without telemetry or
// with a negative WorkloadCap).
func (o *Observers) Insight() *insight.Registry { return o.insight }

// Served is one executed statement as the observers see it: the one
// derivation, from a result, of the metrics, log line, audit offer,
// workload observation and flight record.
type Served struct {
	Start     time.Time
	LatencyMS float64
	SQL, Mode string
	// Stmt is nil when the SQL did not parse; Res is nil when the query
	// failed, Err then says why and Status how it was answered.
	Stmt         *sqlparse.SelectStmt
	Res          *core.Result
	Err          error
	Status       int
	DegradedFrom string        // the mode the ladder degraded from ("" = none)
	Trace        *trace.Tracer // the query's tracer (nil when untraced)
}

// Finish stamps the outcome onto q: the latency since Start, and either the
// answer (status 200) or the classified error and the status it is
// answered with.
func (q *Served) Finish(res *core.Result, err error) {
	q.LatencyMS = float64(time.Since(q.Start).Microseconds()) / 1e3
	q.Res, q.Err, q.Status = res, core.Classify(err), http.StatusOK
	switch err := q.Err; {
	case err == nil:
	case errors.Is(err, core.ErrTimeout) || errors.Is(err, context.DeadlineExceeded):
		// Non-OLA engines are all-or-nothing: past the deadline (and past
		// the degradation ladder) there is no estimate to return.
		q.Status = http.StatusGatewayTimeout
	case errors.Is(err, core.ErrOverloaded):
		q.Status = http.StatusTooManyRequests
	case errors.Is(err, core.ErrEngineUnavailable):
		q.Status = http.StatusServiceUnavailable
	case errors.Is(err, core.ErrQueryPanic):
		q.Status = http.StatusInternalServerError
	case errors.Is(err, context.Canceled):
		q.Status = http.StatusRequestTimeout
	default:
		q.Status = http.StatusBadRequest
	}
}

// File hands one served query to every sink. It only observes: it never
// mutates q.Res and cannot fail the query. It ends the query's root span
// first, so every ending files a finished trace.
func (o *Observers) File(q Served) {
	q.Trace.Finish()
	qr := q.Record()
	if q.Err != nil {
		o.met.Inc("queries_errors_total")
		if q.Status == http.StatusGatewayTimeout {
			o.met.Inc("queries_deadline_total")
		}
		level := slog.LevelWarn
		if q.Status == http.StatusInternalServerError {
			level = slog.LevelError
		}
		o.cfg.Logger.Log(context.Background(), level, "query failed",
			"sql", q.SQL, "mode", q.Mode, "fingerprint", qr.Fingerprint,
			"latency_ms", q.LatencyMS, "status", q.Status, "err", qr.Err)
	} else {
		o.count(q.Res, q.LatencyMS)
		o.logAnswer(q)
		// Whether this answer gets a ground-truth re-execution was decided
		// by a coin fixed before the estimate existed, so the audit stream
		// is an unbiased sample of production. Exact answers and answers
		// without a CI are refused.
		o.aud.OfferStmt(q.Res, q.Stmt)
	}
	// Failures count against the shape too: a fingerprint whose queries
	// started erroring is exactly what /workload should show. A nil Stmt
	// (the SQL did not parse) is counted, not filed.
	if o.insight != nil {
		o.insight.ObserveStmt(q.Stmt, q.Observation())
	}
	o.flight.Record(qr)
}

// count files an answer's metrics.
func (o *Observers) count(res *core.Result, latencyMS float64) {
	tech := string(res.Technique)
	d := &res.Diagnostics
	o.met.Inc(Key("queries_total", "technique", tech))
	o.met.Inc(Key("queries_by_guarantee", "guarantee", res.Guarantee.String()))
	o.met.Add("rows_scanned_total", d.Counters.RowsScanned)
	o.met.Observe(Key("query_latency_seconds", "technique", tech), latencyMS/1000)
	o.met.ObserveWith(Key("query_rows_scanned", "technique", tech),
		float64(d.Counters.RowsScanned), rowsScannedBuckets)
	if d.Partial {
		o.met.Inc("queries_partial_total")
	}
	if c := d.Contract; c != nil {
		o.met.Inc(Key("queries_contract_total", "outcome", string(c.Verdict)))
	}
	if res.Guarantee == core.GuaranteeExact {
		return
	}
	// Accuracy telemetry for approximate answers: the realized relative CI
	// half-width vs the promised one, and whether the spec was met — the
	// production signal that a sample ladder or synopsis has gone stale
	// relative to the workload.
	o.met.ObserveWith(Key("query_ci_rel_width", "technique", tech), res.MaxRelHalfWidth(), errorWidthBuckets)
	if res.Spec.RelError > 0 {
		o.met.ObserveWith(Key("query_ci_target_width", "technique", tech), res.Spec.RelError, errorWidthBuckets)
	}
	if d.SpecSatisfied {
		o.met.Inc(Key("queries_spec_met_total", "technique", tech))
	} else {
		o.met.Inc(Key("queries_spec_missed_total", "technique", tech))
	}
}

// logAnswer writes an answer's log line: Debug, or Warn at or above
// Config.SlowQuery. The attributes are built only when the level is on.
func (o *Observers) logAnswer(q Served) {
	level, msg := slog.LevelDebug, "query"
	if q.LatencyMS >= float64(o.cfg.SlowQuery.Microseconds())/1e3 {
		level, msg = slog.LevelWarn, "slow query"
	}
	ctx := context.Background()
	if !o.cfg.Logger.Enabled(ctx, level) {
		return
	}
	res, d := q.Res, &q.Res.Diagnostics
	o.cfg.Logger.Log(ctx, level, msg,
		"sql", q.SQL, "mode", q.Mode, "technique", string(res.Technique),
		"fingerprint", d.Fingerprint,
		"guarantee", res.Guarantee.String(), "latency_ms", q.LatencyMS,
		"rows_scanned", d.Counters.RowsScanned,
		"sample_fraction", d.SampleFraction,
		"workers", d.Workers,
		"spec_satisfied", d.SpecSatisfied,
		"partial", d.Partial,
		"degraded", d.Degraded)
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
		Status: q.Status, LatencyMS: q.LatencyMS, Trace: q.Trace}
	if q.Stmt != nil {
		qr.Fingerprint = q.Stmt.Fingerprint().Hash
	}
	if q.Res == nil {
		qr.Err = q.Err.Error()
		return qr
	}
	d := &q.Res.Diagnostics
	qr.Technique, qr.RowsScanned = string(q.Res.Technique), d.Counters.RowsScanned
	qr.Degraded, qr.DegradedFrom = d.Degraded, q.DegradedFrom
	qr.Partial, qr.ContractVerdict = d.Partial, q.contractVerdict()
	return qr
}

func (q Served) contractVerdict() string {
	if c := q.Res.Diagnostics.Contract; c != nil {
		return string(c.Verdict)
	}
	return ""
}

// onAuditEvent folds audit-lane outcomes into the metrics registry and the
// per-fingerprint coverage scorecards.
func (o *Observers) onAuditEvent(ev audit.Event) {
	switch ev.Kind {
	case audit.EventAudited:
		o.met.Inc(Key("audits_total", "technique", ev.Technique))
		o.met.Observe(Key("audit_lag_seconds", "technique", ev.Technique), ev.LagMS/1000)
	case audit.EventCovered, audit.EventMissed:
		covered := ev.Kind == audit.EventCovered
		name := "audit_missed_total"
		if covered {
			name = "audit_covered_total"
		}
		o.met.Inc(Key(name, "technique", ev.Technique))
		o.met.ObserveWith(Key("audit_rel_error", "technique", ev.Technique), ev.RelError, errorWidthBuckets)
		if o.insight != nil {
			o.insight.ReportAudit(ev.Fingerprint, ev.Technique, covered)
		}
	case audit.EventViolation:
		o.met.Inc(Key("coverage_violation_total", "technique", ev.Technique))
	case audit.EventContractHeld:
		o.met.Inc(Key("audit_contract_held_total", "technique", ev.Technique))
	case audit.EventContractBroken:
		o.met.Inc(Key("audit_contract_broken_total", "technique", ev.Technique))
	case audit.EventContractViolation:
		o.met.Inc(Key("contract_violation_total", "technique", ev.Technique))
	case audit.EventDropped:
		o.met.Inc("audit_dropped_total")
	case audit.EventDeduped:
		o.met.Inc("audit_deduped_total")
	case audit.EventError:
		o.met.Inc("audit_errors_total")
	case audit.EventUnmatched:
		o.met.Inc(Key("audit_unmatched_total", "technique", ev.Technique))
	case audit.EventStale:
		o.met.Inc(Key("sample_stale_detected_total", "table", ev.Table))
	case audit.EventPanic:
		o.met.Inc("audit_panics_total")
	}
}

// onInsightEvent folds sentinel transitions and evictions into the metrics
// registry and the flight recorder. A tripped sentinel is the per-shape
// analogue of an SLO burn: the flight event ("workload_regression" or
// "workload_recovered") puts it on the same postmortem timeline as faults,
// breaker trips, and shard loss.
func (o *Observers) onInsightEvent(ev insight.Event) {
	switch ev.Kind {
	case insight.EventRegression:
		o.met.Inc(Key("workload_regressions_total", "signal", ev.Signal))
		o.cfg.Logger.Warn("workload regression", "fingerprint", ev.Fingerprint, "signal", ev.Signal,
			"technique", ev.Technique, "baseline", ev.Baseline, "current", ev.Current, "template", ev.Template)
	case insight.EventRecovered:
		o.met.Inc(Key("workload_recoveries_total", "signal", ev.Signal))
	case insight.EventEvicted:
		o.met.Inc("workload_evictions_total")
		return
	}
	sig := ev.Signal
	if ev.Technique != "" {
		sig += "/" + ev.Technique
	}
	o.flight.AddEvent(telemetry.Event{Kind: "workload_" + ev.Kind, Name: ev.Fingerprint, Shard: -1,
		Detail: fmt.Sprintf("%s: baseline %.4g, current %.4g", sig, ev.Baseline, ev.Current)})
}

// onShardEvent files per-shard outcome telemetry: one counter increment per
// shard per scatter, labeled by table, shard, and outcome; the flight
// recorder additionally retains non-ok outcomes as events. Remote envelope
// events (retries, probe transitions) get their own counters — they
// describe the wire, not a scatter outcome — and land in the flight
// recorder too.
func (o *Observers) onShardEvent(ev shard.Event) {
	kind, family, label := "shard", "shard_exec_total", "outcome"
	switch ev.Type {
	case "retry", "probe_down", "probe_up":
		kind, family, label = "shard_remote", "shard_remote_total", "event"
	}
	o.met.Inc(Key(family, label, ev.Type, "shard", strconv.Itoa(ev.Shard), "table", ev.Table))
	if ev.Type != "ok" {
		o.flight.AddEvent(telemetry.Event{
			Kind: kind, Name: ev.Table, Detail: ev.Type, Shard: ev.Shard, TraceID: ev.TraceID,
		})
	}
}

// onFaultFire puts every fired injection on the flight timeline.
func (o *Observers) onFaultFire(point string, kind fault.Kind) {
	o.flight.AddEvent(telemetry.Event{Kind: "fault_fire", Name: point, Detail: kind.String(), Shard: -1})
}

// onBreakerTransition files every circuit-breaker state change as a flight
// event (a no-op without telemetry).
func (o *Observers) onBreakerTransition(engine string, from, to fault.BreakerState) {
	o.flight.AddEvent(telemetry.Event{
		Kind: "breaker", Name: engine, Detail: from.String() + "->" + to.String(), Shard: -1,
	})
}
