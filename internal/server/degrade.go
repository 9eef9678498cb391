package server

// Graceful degradation: the paper's survey shows every AQP technique
// fails somewhere (generality, error guarantees, or work saved), so a
// production service must degrade across techniques rather than fail. On
// a deadline or engine fault the server walks a ladder of cheaper
// techniques — OLA partial estimate, certified offline sample, synopsis —
// and returns the first answer it gets, flagged degraded:true with the
// substitute's own confidence interval. Each engine sits behind a
// consecutive-failure circuit breaker so a sick engine is skipped
// outright instead of being asked to fail again on every request.

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	aqp "repro"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/sqlparse"
	"repro/internal/trace"
)

// injectServerQuery fires inside handleQuery, after admission, within the
// handler's containment scope.
var injectServerQuery = fault.NewPoint("server.query", "query handler, post-admission")

// degradeLadder is the fallback order after the primary engine fails:
// cheapest path to an honest estimate first. OLA reads fresh data and
// owns a partial-result discipline; offline answers from certified
// samples without touching the base table; synopsis is O(synopsis) and
// the last resort (narrowest query class).
var degradeLadder = [...]aqp.Mode{aqp.ModeOLA, aqp.ModeOffline, aqp.ModeSynopsis}

// newBreakers builds one circuit breaker per engine mode; onTransition
// observes every state change with the engine key attached, feeding the
// flight recorder's breaker event stream. The map is complete and
// read-only after construction, so lookups need no lock.
func newBreakers(cfg Config, onTransition func(engine string, from, to fault.BreakerState)) map[aqp.Mode]*fault.Breaker {
	m := make(map[aqp.Mode]*fault.Breaker)
	for _, k := range aqp.Modes {
		engine := string(k)
		m[k] = fault.NewBreaker(fault.BreakerConfig{Threshold: cfg.BreakerThreshold, Cooldown: cfg.BreakerCooldown,
			OnTransition: func(from, to fault.BreakerState) { onTransition(engine, from, to) }})
	}
	return m
}

// executeEngine runs one engine behind its circuit breaker: an open
// breaker short-circuits to ErrEngineUnavailable, outcomes feed the
// breaker, and a recovered panic is counted per engine.
func (s *Server) executeEngine(ctx context.Context, stmt *sqlparse.SelectStmt, req aqp.Request) (*core.Result, error) {
	key := string(req.Mode)
	brk := s.brk[req.Mode]
	if brk != nil && !brk.Allow() {
		s.obs.met.Inc(Key("breaker_open_total", "engine", key))
		return nil, fmt.Errorf("%w: circuit breaker open for engine %s", core.ErrEngineUnavailable, key)
	}
	res, err := s.db.Run(ctx, stmt, req)
	if errors.Is(err, core.ErrQueryPanic) {
		s.obs.met.Inc(Key("query_panics_total", "engine", key))
	}
	if brk != nil {
		// Only engine faults (panics, injected faults) count against the
		// breaker: timeouts and parse errors say nothing about engine
		// health, and counting them would trip breakers under load.
		engineFault := err != nil && (errors.Is(err, core.ErrQueryPanic) || fault.Injected(err))
		if brk.Record(!engineFault) {
			s.obs.met.Inc(Key("breaker_trips_total", "engine", key))
			s.cfg.Logger.Warn("circuit breaker tripped", "engine", key, "err", err.Error())
		}
	}
	return res, err
}

// degradable reports whether the ladder should catch this failure:
// deadline expiry, a contained panic, or an unavailable engine. Parse
// and semantic errors are the caller's, cancellation means the client is
// gone, and overload must shed — degrading any of those would waste
// capacity exactly when it is scarce.
func degradable(err error) bool {
	return errors.Is(err, core.ErrTimeout) ||
		errors.Is(err, core.ErrQueryPanic) ||
		errors.Is(err, core.ErrEngineUnavailable)
}

// executeResilient runs the requested engine and, on a degradable
// failure, walks the degradation ladder under a fresh per-rung budget
// carved from the parent (request) context — the primary context is
// typically already expired when the ladder starts. It returns the
// result, the mode degraded from ("" if the primary answered), and the
// primary error if every rung failed too. Every rung re-runs the one
// statement the handler parsed.
func (s *Server) executeResilient(ctx, parent context.Context, stmt *sqlparse.SelectStmt,
	req aqp.Request, noDegrade bool, workers int) (*core.Result, string, error) {
	res, err := s.executeEngine(ctx, stmt, req)
	if err == nil {
		return res, "", nil
	}
	primary := req.Mode
	if noDegrade || s.cfg.DegradeBudget <= 0 || !degradable(err) || parent.Err() != nil {
		return nil, "", err
	}
	for _, rung := range degradeLadder {
		if rung == primary {
			continue
		}
		req.Mode = rung
		rctx, cancel := context.WithTimeout(parent, s.cfg.DegradeBudget)
		rctx = exec.ContextWithWorkers(rctx, workers)
		// The rung context derives from the raw request context, which
		// carries no tracer — re-attach the query's span so substitute
		// engines appear in the same trace.
		rctx = trace.Propagate(rctx, ctx)
		sub, rerr := s.executeEngine(rctx, stmt, req)
		cancel()
		if rerr != nil {
			continue
		}
		sub.Diagnostics.Degraded = true
		sub.Diagnostics.Messages = append(sub.Diagnostics.Messages, fmt.Sprintf(
			"server: %s engine failed (%v); degraded to %s", primary, err, rung))
		s.obs.met.Inc(Key("queries_degraded_total", "to", string(rung)))
		s.cfg.Logger.Warn("query degraded", "from", primary, "to", rung, "err", err.Error())
		return sub, string(primary), nil
	}
	return nil, "", err
}

// BreakerStatus is one engine breaker's state for GET /faults.
type BreakerStatus struct {
	Engine string `json:"engine"`
	State  string `json:"state"`
	Trips  int64  `json:"trips"`
}

// FaultsResponse is the body of GET /faults.
type FaultsResponse struct {
	Installed bool                `json:"installed"`
	Points    []fault.PointStatus `json:"points"`
	Breakers  []BreakerStatus     `json:"breakers"`
}

// handleFaults lists the registered fault-injection points (with hit and
// fire counts) and the per-engine circuit breakers.
func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	resp := FaultsResponse{Installed: fault.Active(), Points: fault.Status()}
	for _, k := range aqp.Modes {
		b := s.brk[k]
		resp.Breakers = append(resp.Breakers, BreakerStatus{
			Engine: string(k), State: b.State().String(), Trips: b.Trips(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}
