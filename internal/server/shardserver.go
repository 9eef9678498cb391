package server

// ShardServer: the serving side of the remote-shard RPC seam. One process
// holds one partition of one table and exposes the two wire endpoints
// (estimate / health). It is deliberately dumb — no admission control, no
// engines, no degradation ladder — because the coordinator owns query
// semantics: the shard server's only job is to run an aggregate subtree
// over its rows with the sampler spec it was handed (seeds already
// shard-derived) and ship the partial state back bit-true, as the raw
// bytes of the partial wire format. Malformed, oversized or
// version-skewed requests are refused loudly with 4xx, which the client
// treats as permanent (no retry); execution failures are 5xx, which the
// client's retry envelope may re-attempt.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strconv"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/shard"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/trace"
)

// injectShardServe fires inside the estimate handler, so chaos schedules
// can fail the server side of the seam as well as the client side.
var injectShardServe = fault.NewPoint("shardserver.estimate",
	"shard server: estimate execution")

// maxRequestBytes bounds an estimate request body.
const maxRequestBytes = 1 << 20

// ShardServerConfig configures one shard-server process.
type ShardServerConfig struct {
	// ShardID is this shard's index within its group.
	ShardID int
	// Table is the logical table name served (requests for other tables
	// are refused).
	Table string
	// Workers caps per-estimate parallelism (default GOMAXPROCS).
	Workers int
}

// ShardServer serves one partition of one table over the wire schema: a
// shard.LocalShard behind HTTP, so a remote shard plans, samples and
// executes exactly as its in-process twin would.
type ShardServer struct {
	cfg   ShardServerConfig
	shard *shard.LocalShard
}

// NewShardServer wraps a partition table in a shard server.
func NewShardServer(t *storage.Table, cfg ShardServerConfig) *ShardServer {
	if cfg.Table == "" {
		cfg.Table = t.Name()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return &ShardServer{cfg: cfg, shard: shard.NewLocalShard(cfg.ShardID, t)}
}

// Handler returns the shard server's HTTP handler.
func (s *ShardServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/shard/estimate", s.handleEstimate)
	mux.HandleFunc("/shard/health", s.handleHealth)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func (s *ShardServer) readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return false
	}
	if len(data) > maxRequestBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxRequestBytes)
		return false
	}
	if err := json.Unmarshal(data, v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func (s *ShardServer) checkTable(w http.ResponseWriter, table string) bool {
	if table != s.cfg.Table {
		writeError(w, http.StatusBadRequest, "this shard serves table %q, not %q", s.cfg.Table, table)
		return false
	}
	return true
}

func (s *ShardServer) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req shard.EstimateRequest
	if !s.readBody(w, r, &req) {
		return
	}
	if req.V != shard.WireVersion {
		writeError(w, http.StatusBadRequest,
			"estimate request wire version %d unsupported (this build speaks v%d)", req.V, shard.WireVersion)
		return
	}
	if !s.checkTable(w, req.Table) {
		return
	}
	stmt, err := sqlparse.Parse(req.SQL)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse: %v", err)
		return
	}
	// Adopt the caller's trace context: the echoed trace ID proves the
	// scatter leg's traceparent crossed the process boundary.
	traceID := ""
	if tid, _, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
		traceID = tid.String()
	}
	if err := injectShardServe.Inject(); err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	workers := req.Workers
	if workers <= 0 || workers > s.cfg.Workers {
		workers = s.cfg.Workers
	}
	part, err := s.estimate(r.Context(), shard.Query{Stmt: stmt, Sample: req.Sample}, workers)
	if errors.Is(err, shard.ErrPlan) {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "execute: %v", err)
		return
	}
	blob, err := exec.EncodeAggPartialWire(part)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode partial: %v", err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(blob)))
	h.Set(shard.HeaderWireVersion, strconv.Itoa(shard.WireVersion))
	h.Set(shard.HeaderShardID, strconv.Itoa(s.cfg.ShardID))
	h.Set(shard.HeaderRows, strconv.Itoa(s.shard.Rows()))
	if traceID != "" {
		h.Set(shard.HeaderTraceID, traceID)
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}

// estimate runs the shard's estimate with panic containment: an injected
// (or genuine) panic inside the subtree becomes a typed 5xx error, and the
// process keeps serving.
func (s *ShardServer) estimate(ctx context.Context, q shard.Query, workers int) (part *exec.AggPartial, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			part, err = nil, fault.AsError(rec)
		}
	}()
	return s.shard.Estimate(ctx, q, workers)
}

func (s *ShardServer) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, shard.HealthWire{
		V:       shard.WireVersion,
		ShardID: s.cfg.ShardID,
		Table:   s.cfg.Table,
		Rows:    s.shard.Rows(),
	})
}
