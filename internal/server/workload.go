package server

import (
	"net/http"
	"strconv"

	"repro/internal/insight"
)

// WorkloadRegistry returns the workload-insight registry (nil when
// telemetry is off or WorkloadCap is negative).
func (s *Server) WorkloadRegistry() *insight.Registry { return s.obs.insight }

// WorkloadResponse is the body of GET /workload.
type WorkloadResponse struct {
	Enabled bool            `json:"enabled"`
	Summary insight.Summary `json:"summary"`
	// By is the resolved ranking: traffic, latency, or regressions.
	By  string                 `json:"by"`
	Top []insight.CardSnapshot `json:"top"`
}

// handleWorkload serves the per-fingerprint scorecards, top-N under
// ?by=traffic|latency|regressions (default traffic), ?n= (default 20).
func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.obs.insight == nil {
		writeError(w, http.StatusNotFound, "workload insight disabled (start aqpd with -telemetry)")
		return
	}
	q := r.URL.Query()
	n := 20
	if v := q.Get("n"); v != "" {
		i, err := strconv.Atoi(v)
		if err != nil || i <= 0 {
			writeError(w, http.StatusBadRequest, "bad n %q", v)
			return
		}
		n = i
	}
	by := insight.ByTraffic
	switch v := q.Get("by"); v {
	case "", insight.ByTraffic:
	case insight.ByLatency, insight.ByRegressions:
		by = v
	default:
		writeError(w, http.StatusBadRequest, "bad by %q (want traffic, latency, or regressions)", v)
		return
	}
	writeJSON(w, http.StatusOK, WorkloadResponse{
		Enabled: true,
		Summary: s.obs.insight.Summary(),
		By:      by,
		Top:     s.obs.insight.Top(n, by),
	})
}
