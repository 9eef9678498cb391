package shard

// Wire schema for the remote-shard RPC seam. Two endpoints over HTTP,
// both idempotent (safe to retry):
//
//	POST /shard/estimate — a JSON EstimateRequest runs a query's aggregate
//	  subtree; a 200 reply is application/octet-stream whose body is
//	  exactly the exec.AggPartial wire bytes (binary, its own version),
//	  with the shard's identity and population in the Header* headers.
//	GET  /shard/health   — a JSON HealthWire: the shard's population.
//
// Requests and the health reply carry WireVersion in their JSON, estimate
// replies in HeaderWireVersion; either side refuses an unknown version
// loudly rather than guessing. Every non-200 reply is a JSON WireError.
// The types live here (not in internal/server) so the client and the
// server share one definition without an import cycle: server imports
// shard, never the reverse.

import "repro/internal/sample"

// WireVersion is the current RPC schema version.
const WireVersion = 2

// Estimate reply headers.
const (
	HeaderWireVersion = "X-Shard-Wire-Version"
	HeaderShardID     = "X-Shard-Id"
	// HeaderRows is the shard's population size — the gather step's
	// coverage accounting (and honest extrapolation) depends on it.
	HeaderRows = "X-Shard-Rows"
	// HeaderTraceID echoes the trace ID parsed from the request's
	// traceparent header, proving context propagation across the process
	// boundary.
	HeaderTraceID = "X-Shard-Trace-Id"
)

// EstimateRequest asks a shard server to execute the statement's
// aggregate subtree over its partition. Sample (when present) is already
// shard-resolved: Seed derived via DeriveSeed and Rate possibly
// Neyman-overridden, so the server stamps it onto its scans verbatim.
type EstimateRequest struct {
	V       int          `json:"v"`
	Table   string       `json:"table"`
	SQL     string       `json:"sql"`
	Sample  *sample.Spec `json:"sample,omitempty"`
	Workers int          `json:"workers,omitempty"`
}

// HealthWire is the shard server's health report.
type HealthWire struct {
	V       int    `json:"v"`
	ShardID int    `json:"shard_id"`
	Table   string `json:"table"`
	Rows    int    `json:"rows"`
}

// WireError is the body of a non-200 response.
type WireError struct {
	Error string `json:"error"`
}
