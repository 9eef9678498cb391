package server

import (
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/trace"
)

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	// SQL is the query text; it may carry WITH ERROR / CONFIDENCE.
	SQL string `json:"sql"`
	// Mode picks the engine: "auto" (advisor, default), "exact",
	// "online", "offline", "ola", "synopsis", "as-written".
	Mode string `json:"mode,omitempty"`
	// RelError / Confidence form the accuracy contract when the SQL has
	// no WITH ERROR clause (both required together).
	RelError   float64 `json:"rel_error,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	// TimeoutMS bounds execution; 0 uses the server default. It is
	// clamped to the server maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Workers requests a morsel-parallel worker count for this query;
	// 0 uses the server's per-query cap, larger values are clamped to it.
	Workers int `json:"workers,omitempty"`
	// Trace embeds the per-query span profile in the response. Tracing
	// is observational only: rows are bit-identical either way.
	Trace bool `json:"trace,omitempty"`
	// NoDegrade disables the graceful-degradation ladder for this query:
	// on engine failure or deadline the caller gets the typed error
	// instead of a best-effort estimate from a cheaper technique.
	NoDegrade bool `json:"no_degrade,omitempty"`
	// Contract requests a-priori two-stage contract execution: a pilot
	// sizes the stage-two sampling fraction that makes the realized CI
	// meet the error spec, and the response carries a contract block with
	// the met/missed/infeasible verdict. Valid with modes "auto" (online
	// engine), "online", "ola", and "offline"; the others answer 400.
	Contract bool `json:"contract,omitempty"`
}

// ItemJSON annotates one result cell.
type ItemJSON struct {
	Name         string  `json:"name"`
	IsAggregate  bool    `json:"is_aggregate"`
	HasCI        bool    `json:"has_ci"`
	CILo         float64 `json:"ci_lo,omitempty"`
	CIHi         float64 `json:"ci_hi,omitempty"`
	Confidence   float64 `json:"confidence,omitempty"`
	RelHalfWidth float64 `json:"rel_half_width,omitempty"`
}

// QueryResponse is the body of a successful POST /query, and the type a Go
// client decodes it into. The server writes it compact through
// appendReply, with Rows and Items appended straight from the result, so
// encodeResult leaves those two nil.
type QueryResponse struct {
	Columns []string     `json:"columns"`
	Rows    [][]any      `json:"rows"`
	Items   [][]ItemJSON `json:"items,omitempty"`

	Technique string  `json:"technique"`
	Guarantee string  `json:"guarantee"`
	RelError  float64 `json:"rel_error,omitempty"`
	ConfSpec  float64 `json:"confidence,omitempty"`

	// Partial marks a deadline-truncated online-aggregation answer: the
	// best progressive estimate available when time ran out.
	Partial bool `json:"partial"`
	// Degraded marks a best-effort answer that is not what the request
	// asked for: the requested engine failed or timed out and the
	// degradation ladder substituted a cheaper technique (or kept a
	// partial estimate after a mid-query fault). The CI fields still
	// describe exactly the estimate returned.
	Degraded bool `json:"degraded,omitempty"`
	// DegradedFrom names the originally requested mode when Degraded.
	DegradedFrom   string  `json:"degraded_from,omitempty"`
	SpecSatisfied  bool    `json:"spec_satisfied"`
	LatencyMS      float64 `json:"latency_ms"`
	RowsScanned    int64   `json:"rows_scanned"`
	SampleFraction float64 `json:"sample_fraction"`
	// Workers is the morsel-parallel worker count the query ran with.
	Workers int `json:"workers,omitempty"`
	// Fingerprint is the query's shape hash (literal-normalized
	// canonical SQL + query-column-set) — the key into GET /workload's
	// scorecards and the flight recorder's fingerprint fields. Purely
	// derived from the SQL text, so it is identical whether or not
	// telemetry is on.
	Fingerprint string   `json:"fingerprint,omitempty"`
	Messages    []string `json:"messages,omitempty"`
	// TraceID is the query's 128-bit trace identifier (lowercase hex),
	// present whenever the query was traced (request "trace": true, or
	// server telemetry on). An inbound traceparent header's trace ID is
	// adopted, so callers can correlate.
	TraceID string `json:"trace_id,omitempty"`
	// Trace is the span profile tree, present when the request set
	// "trace": true.
	Trace *trace.Profile `json:"trace,omitempty"`
	// Shards summarizes scatter-gather execution over a sharded table.
	// Absent entirely for unsharded queries, so their JSON is unchanged.
	Shards *ShardsJSON `json:"shards,omitempty"`
	// Contract is the a-priori contract summary (sizing, cost, verdict).
	// Absent entirely for non-contract queries, so their JSON is
	// unchanged.
	Contract *contract.Summary `json:"contract,omitempty"`
}

// ShardsJSON is the wire form of a sharded execution summary.
type ShardsJSON struct {
	Table        string  `json:"table"`
	Count        int     `json:"count"`
	Key          string  `json:"key"`
	RowsPerShard []int   `json:"rows_per_shard,omitempty"`
	Degraded     []int   `json:"degraded,omitempty"`
	Pruned       []int   `json:"pruned,omitempty"`
	Extrapolated bool    `json:"extrapolated,omitempty"`
	Coverage     float64 `json:"coverage"`
}

// ErrorResponse is the body of any non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// TableInfo describes one catalog table for GET /tables.
type TableInfo struct {
	Name    string       `json:"name"`
	Rows    int          `json:"rows"`
	Version uint64       `json:"version"`
	Columns []ColumnInfo `json:"columns"`
	Samples []SampleInfo `json:"samples,omitempty"`
}

// ColumnInfo describes one column.
type ColumnInfo struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// SampleInfo describes one stored offline sample.
type SampleInfo struct {
	Name  string   `json:"name"`
	QCS   []string `json:"qcs,omitempty"`
	Rows  int      `json:"rows"`
	Rate  float64  `json:"rate,omitempty"`
	Cap   int      `json:"cap,omitempty"`
	Fresh bool     `json:"fresh"`
}

// BuildSamplesRequest is the body of POST /samples/build.
type BuildSamplesRequest struct {
	Table string `json:"table"`
	// QCS lists the query column sets to stratify on; an empty list
	// builds the default ladder (uniform sample only).
	QCS [][]string `json:"qcs,omitempty"`
	// Profile lists queries to run for error-profile certification.
	Profile []string `json:"profile,omitempty"`
}

// BuildSamplesResponse reports what POST /samples/build produced.
type BuildSamplesResponse struct {
	Table   string       `json:"table"`
	Samples []SampleInfo `json:"samples"`
}

// encodeResult converts an annotated engine result to the wire form, but
// for its rows and items, which appendReply reads from res itself.
func encodeResult(res *core.Result) *QueryResponse {
	out := &QueryResponse{
		Columns:        res.Columns,
		Technique:      string(res.Technique),
		Guarantee:      res.Guarantee.String(),
		RelError:       res.Spec.RelError,
		ConfSpec:       res.Spec.Confidence,
		Partial:        res.Diagnostics.Partial,
		Degraded:       res.Diagnostics.Degraded,
		SpecSatisfied:  res.Diagnostics.SpecSatisfied,
		LatencyMS:      float64(res.Diagnostics.Latency.Microseconds()) / 1e3,
		RowsScanned:    res.Diagnostics.Counters.RowsScanned,
		SampleFraction: res.Diagnostics.SampleFraction,
		Workers:        res.Diagnostics.Workers,
		Fingerprint:    res.Diagnostics.Fingerprint,
		Messages:       res.Diagnostics.Messages,
	}
	if sh := res.Diagnostics.Shards; sh != nil {
		out.Shards = &ShardsJSON{
			Table:        sh.Table,
			Count:        sh.Count,
			Key:          sh.Key,
			RowsPerShard: sh.RowsPerShard,
			Degraded:     sh.Degraded,
			Pruned:       sh.Pruned,
			Extrapolated: sh.Extrapolated,
			Coverage:     sh.CoverageFraction,
		}
	}
	out.Contract = res.Diagnostics.Contract
	return out
}
