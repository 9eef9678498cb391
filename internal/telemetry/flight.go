package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Event is one process event the flight recorder retains alongside
// query records: a fault-point fire, a circuit-breaker transition, or a
// per-shard scatter outcome.
type Event struct {
	T time.Time `json:"t"`
	// Kind is "fault_fire", "breaker", or "shard".
	Kind string `json:"kind"`
	// Name identifies the subject: fault-point name, breaker's engine,
	// or sharded table.
	Name string `json:"name"`
	// Detail carries the specifics: the fired fault kind, the breaker
	// transition ("closed->open"), or the shard outcome ("ok", "fail").
	Detail string `json:"detail,omitempty"`
	// Shard is the shard index for shard events (-1 otherwise).
	Shard int `json:"shard,omitempty"`
	// TraceID, when non-empty, names the query trace the event occurred
	// under; Record attributes such events by identity instead of by
	// time overlap. Process-global events (fault fires, breaker
	// transitions) have none.
	TraceID string `json:"trace_id,omitempty"`
}

// QueryRecord is one query's postmortem record.
type QueryRecord struct {
	Seq     uint64    `json:"seq"`
	Start   time.Time `json:"start"`
	TraceID string    `json:"trace_id,omitempty"`
	SQL     string    `json:"sql"`
	Mode    string    `json:"mode,omitempty"`
	// Fingerprint is the query-shape hash (literal-normalized canonical
	// SQL + query-column-set), correlating this record with its
	// /workload scorecard.
	Fingerprint string `json:"fingerprint,omitempty"`

	Technique    string  `json:"technique,omitempty"`
	Status       int     `json:"status"`
	Err          string  `json:"err,omitempty"`
	LatencyMS    float64 `json:"latency_ms"`
	RowsScanned  int64   `json:"rows_scanned,omitempty"`
	Degraded     bool    `json:"degraded,omitempty"`
	DegradedFrom string  `json:"degraded_from,omitempty"`
	Partial      bool    `json:"partial,omitempty"`
	// ContractVerdict is "met", "missed", or "infeasible" for contract
	// queries ("" otherwise).
	ContractVerdict string `json:"contract_verdict,omitempty"`

	// Keep names why this record was pinned to the always-keep ring:
	// "error", "degraded", "contract_missed", or "slow" ("" = recent
	// ring only).
	Keep string `json:"keep,omitempty"`
	// Events are the process events whose timestamps fall inside this
	// query's execution window — under concurrency an event may be
	// attributed to several overlapping queries, which is the honest
	// reading of a process-global fault.
	Events []Event `json:"events,omitempty"`
	// Spans is the query's full span tree, rendered from Trace when the
	// record is read (Snapshot).
	Spans *trace.Profile `json:"spans,omitempty"`
	// Trace is the query's tracer, the one retained span record; nil for
	// an untraced query. Its root is ended before the record is filed.
	Trace *trace.Tracer `json:"-"`
}

// RecorderConfig sizes the flight recorder.
type RecorderConfig struct {
	// Queries is each ring's capacity: the recorder keeps the last
	// Queries queries AND the last Queries notable (errored, degraded,
	// contract-missed, slowest-decile) queries (default 64). The
	// process-event ring holds 4*Queries events.
	Queries int
}

// slowWindow is how many recent latencies the slow-decile cut ranks.
const slowWindow = 128

// Recorder is the bounded flight recorder: two query rings (recent and
// notable) plus a process-event ring, under one mutex. Appends are O(1);
// Record also scans the event ring to attribute events to the query.
// Nothing here is on a per-row path.
type Recorder struct {
	mu      sync.Mutex
	seq     uint64
	recent  *stats.Ring[QueryRecord]
	notable *stats.Ring[QueryRecord] // always-keep records
	events  *stats.Ring[Event]
	lats    *stats.RollingQuantiles // recent latencies for the slow-decile cut
}

// NewRecorder builds an empty recorder.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.Queries <= 0 {
		cfg.Queries = 64
	}
	return &Recorder{
		recent:  stats.NewRing[QueryRecord](cfg.Queries),
		notable: stats.NewRing[QueryRecord](cfg.Queries),
		events:  stats.NewRing[Event](4 * cfg.Queries),
		lats:    stats.NewRollingQuantiles(slowWindow),
	}
}

// AddEvent appends one process event.
func (r *Recorder) AddEvent(ev Event) {
	if r == nil {
		return
	}
	if ev.T.IsZero() {
		ev.T = time.Now()
	}
	r.mu.Lock()
	r.events.Push(ev)
	r.mu.Unlock()
}

// slowCutLocked returns the rolling nearest-rank 90th-percentile latency
// (the slowest-decile threshold), or +Inf while fewer than 20 latencies
// have been seen — early queries must not all be pinned as "slow".
func (r *Recorder) slowCutLocked() float64 {
	if r.lats.N() < 20 {
		return math.Inf(1)
	}
	return r.lats.Quantile(0.9)
}

// Record files one completed query. It stamps the sequence number,
// decides the always-keep reason, attaches overlapping process events,
// and appends to the ring(s).
func (r *Recorder) Record(qr QueryRecord) {
	if r == nil {
		return
	}
	end := qr.Start.Add(time.Duration(qr.LatencyMS * float64(time.Millisecond)))
	if qr.Trace != nil {
		qr.TraceID = qr.Trace.TraceID()
	}
	r.mu.Lock()
	r.seq++
	qr.Seq = r.seq

	// Attribute process events. An event that carries a trace ID is
	// attributed by identity — it belongs to exactly the query whose
	// trace it occurred under, never to a concurrent bystander. Only
	// trace-less events (process-global fault fires, breaker
	// transitions) fall back to time-window overlap, which under
	// concurrency honestly attributes them to every overlapping query.
	for i := 0; i < r.events.N(); i++ {
		ev := r.events.At(i)
		if ev.TraceID != "" {
			if qr.TraceID != "" && ev.TraceID == qr.TraceID {
				qr.Events = append(qr.Events, ev)
			}
			continue
		}
		if !ev.T.Before(qr.Start) && !ev.T.After(end) {
			qr.Events = append(qr.Events, ev)
		}
	}

	// Always-keep sampling.
	switch {
	case qr.Status >= 400 || qr.Err != "":
		qr.Keep = "error"
	case qr.Degraded:
		qr.Keep = "degraded"
	case qr.ContractVerdict != "" && qr.ContractVerdict != "met":
		qr.Keep = "contract_" + qr.ContractVerdict
	case qr.LatencyMS >= r.slowCutLocked():
		qr.Keep = "slow"
	}

	r.lats.Push(qr.LatencyMS)
	r.recent.Push(qr)
	if qr.Keep != "" {
		r.notable.Push(qr)
	}
	r.mu.Unlock()
}

// Bundle is one flight-recorder dump: every retained query record
// (recent ∪ notable, deduplicated, oldest first) plus the raw process-
// event ring.
type Bundle struct {
	GeneratedAt time.Time `json:"generated_at"`
	// Reason says what triggered the dump: "http", "sigquit", "panic",
	// or "slo_fast_burn:<objective>".
	Reason  string        `json:"reason"`
	Queries []QueryRecord `json:"queries"`
	Events  []Event       `json:"events"`
	// SLO carries the objective statuses at dump time when the caller
	// supplied them.
	SLO []ObjectiveStatus `json:"slo,omitempty"`
	// Info is free-form identity (build info, uptime).
	Info map[string]string `json:"info,omitempty"`
}

// Snapshot assembles a Bundle (without SLO/Info; callers add those) and
// renders each record's span tree from its tracer.
func (r *Recorder) Snapshot(reason string) Bundle {
	b := Bundle{GeneratedAt: time.Now(), Reason: reason}
	if r == nil {
		return b
	}
	r.mu.Lock()
	seen := make(map[uint64]bool, r.recent.N()+r.notable.N())
	for _, ring := range []*stats.Ring[QueryRecord]{r.notable, r.recent} {
		for i := 0; i < ring.N(); i++ {
			if qr := ring.At(i); !seen[qr.Seq] {
				seen[qr.Seq] = true
				b.Queries = append(b.Queries, qr)
			}
		}
	}
	b.Events = r.events.AppendTo(nil)
	r.mu.Unlock()
	// Span trees render outside the lock; each span takes its own.
	for i := range b.Queries {
		b.Queries[i].Spans = b.Queries[i].Trace.Root().Snapshot()
	}
	sort.Slice(b.Queries, func(i, j int) bool { return b.Queries[i].Seq < b.Queries[j].Seq })
	return b
}

// WriteJSON serializes a bundle as indented JSON.
func (b Bundle) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
