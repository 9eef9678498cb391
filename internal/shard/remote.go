package shard

// RemoteShard: the network implementation of the Shard interface, wrapped
// in a robustness envelope. Every call gets (1) a per-call deadline
// derived from the query deadline minus gather slack, and (2)
// deterministic seeded-jitter retries for these idempotent endpoints, with
// permanent (4xx) failures exempted via fault.ErrNoRetry and the retries
// counted. Each attempt is exactly one HTTP request: a straggler is bounded
// by the call deadline, the retry budget and the shard's breaker.
// Fault points at remote.dial / remote.send / remote.recv / remote.decode
// let the chaos harness kill, delay, or corrupt the wire deterministically.
//
// Failure semantics are inherited from the scatter executor: a remote
// call that exhausts its envelope is one failed shard — its stratum is
// extrapolated (hash keys) or refused (range keys) by the gather step,
// flagged Degraded, and attributed in health, metrics, and flight
// records. Never a silent wrong answer.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Fault points on the wire seams, armed by the standard chaos schedules.
var (
	injectRemoteDial   = fault.NewPoint("remote.dial", "remote shard: before issuing the HTTP request")
	injectRemoteSend   = fault.NewPoint("remote.send", "remote shard: request transmit")
	injectRemoteRecv   = fault.NewPoint("remote.recv", "remote shard: response receive")
	injectRemoteDecode = fault.NewPoint("remote.decode", "remote shard: partial-state decode")
)

const (
	// maxWireBytes bounds a response read (64 MiB — far above any real
	// partial, small enough to contain a runaway server). A larger body
	// is refused, never decoded as a truncated prefix.
	maxWireBytes = 64 << 20
	// gatherSlack is reserved out of the query deadline for the merge/
	// finalize step after the last shard answers.
	gatherSlack = 100 * time.Millisecond
)

// RemoteOptions tunes the remote-shard client envelope. The zero value
// gives sane defaults throughout.
type RemoteOptions struct {
	// CallTimeout caps any single RPC (default 10s). The effective
	// per-call deadline is min(CallTimeout, query deadline − gatherSlack).
	CallTimeout time.Duration
	// ProbeInterval is the background health-probe cadence (default 2s).
	// Negative disables background probing (the attach-time probe still
	// runs).
	ProbeInterval time.Duration
}

// RemoteShard forwards Shard calls to a shard-server process over the
// versioned wire schema. Safe for concurrent use.
type RemoteShard struct {
	id      int
	table   string
	addr    string // base URL, e.g. http://127.0.0.1:9101
	opt     RemoteOptions
	client  *http.Client
	onEvent func(Event) // set once at attach, before any call

	retries atomic.Int64

	mu      sync.Mutex
	rows    int
	alive   bool
	probeMS float64

	stopOnce sync.Once
	stop     chan struct{}
}

func newRemoteShard(id int, table, addr string, opt RemoteOptions) *RemoteShard {
	return &RemoteShard{
		id:     id,
		table:  table,
		addr:   strings.TrimRight(addr, "/"),
		opt:    opt,
		client: &http.Client{},
		stop:   make(chan struct{}),
	}
}

// ID implements Shard.
func (r *RemoteShard) ID() int { return r.id }

// Kind implements Shard.
func (r *RemoteShard) Kind() string { return "remote" }

// Rows implements Shard: the population size last reported by the shard
// server (attach probes synchronously, so this is live before the first
// query).
func (r *RemoteShard) Rows() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rows
}

// Bounds implements Shard: remote shards don't track key bounds, so they
// never prune — the safe default.
func (r *RemoteShard) Bounds() (lo, hi storage.Value, ok bool) {
	return storage.Value{}, storage.Value{}, false
}

// Estimate implements Shard: serialize the query, run it through the
// retry envelope, decode the partial the reply body carries.
func (r *RemoteShard) Estimate(ctx context.Context, q Query, workers int) (*exec.AggPartial, error) {
	if q.Stmt == nil {
		return nil, fmt.Errorf("shard %d: remote estimate without a statement", r.id)
	}
	req := EstimateRequest{V: WireVersion, Table: r.table, SQL: q.Stmt.String(), Sample: q.Sample, Workers: workers}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	cctx, cancel := r.callCtx(ctx)
	defer cancel()
	rep, err := r.call(cctx, "/shard/estimate", body)
	if err != nil {
		return nil, err
	}
	if err := injectRemoteDecode.Inject(); err != nil {
		return nil, fmt.Errorf("shard %d: %w", r.id, err)
	}
	if v := rep.hdr.Get(HeaderWireVersion); v != strconv.Itoa(WireVersion) {
		if v == "" {
			v = "missing (a v1 shard server sends none)"
		}
		return nil, fmt.Errorf("shard %d: estimate response wire version %s; this build speaks v%d", r.id, v, WireVersion)
	}
	rows, err := strconv.Atoi(rep.hdr.Get(HeaderRows))
	if err == nil {
		err = checkRows(rows)
	}
	if err != nil {
		// The population feeds coverage, extrapolation and Neyman rates:
		// a reply that garbles it is malformed, and asking again sends the
		// same reply.
		return nil, fmt.Errorf("%w: shard %d: estimate response %s: %w", fault.ErrNoRetry, r.id, HeaderRows, err)
	}
	part, err := exec.DecodeAggPartialWire(rep.body)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", r.id, err)
	}
	r.mu.Lock()
	r.rows = rows
	r.mu.Unlock()
	return part, nil
}

// Health implements Shard, reporting the last probe's view plus the
// envelope counters. Breaker state is stamped on by the owning Group.
func (r *RemoteShard) Health() Health {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Health{
		ID:             r.id,
		Kind:           "remote",
		Addr:           r.addr,
		Rows:           r.rows,
		Alive:          r.alive,
		ProbeLatencyMS: r.probeMS,
		Retries:        r.retries.Load(),
	}
}

// Close stops the background prober. Safe to call twice.
func (r *RemoteShard) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
}

// callCtx derives the per-call deadline: the configured cap, tightened to
// the query deadline minus gather slack so the coordinator always keeps
// enough budget to merge and answer honestly after the last shard.
func (r *RemoteShard) callCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	limit := r.opt.CallTimeout
	if limit <= 0 {
		limit = 10 * time.Second
	}
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl) - gatherSlack; rem < limit {
			limit = rem
		}
	}
	if limit <= 0 {
		// The budget is already spent; fail fast rather than hang.
		limit = time.Millisecond
	}
	return context.WithTimeout(ctx, limit)
}

// reply is one successful RPC's raw body and headers.
type reply struct {
	body []byte
	hdr  http.Header
}

// call runs one logical RPC through the retry envelope: one request per
// attempt, 3 attempts at most, with the jitter seeded per shard so replays
// retry identically. Attempts beyond the first are counted and surfaced as
// events/metrics.
func (r *RemoteShard) call(ctx context.Context, path string, body []byte) (reply, error) {
	tid := traceIDFrom(ctx)
	attempt := 0
	var rep reply
	err := fault.Retry(ctx, fault.RetryConfig{Seed: int64(r.id) + 1}, func() (err error) {
		attempt++
		if attempt > 1 {
			r.retries.Add(1)
			r.emit("retry", tid)
		}
		rep, err = r.once(ctx, path, body)
		return err
	})
	return rep, err
}

// once issues a single HTTP request, threading the chaos fault points.
func (r *RemoteShard) once(ctx context.Context, path string, body []byte) (reply, error) {
	if err := injectRemoteDial.Inject(); err != nil {
		return reply{}, fmt.Errorf("shard %d %s: %w", r.id, path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.addr+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if sp := trace.SpanFromContext(ctx); sp != nil {
		if tp := sp.Traceparent(); tp != "" {
			req.Header.Set("traceparent", tp)
		}
	}
	if err := injectRemoteSend.Inject(); err != nil {
		return reply{}, fmt.Errorf("shard %d %s: %w", r.id, path, err)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return reply{}, fmt.Errorf("shard %d %s: %w", r.id, path, err)
	}
	defer resp.Body.Close()
	if err := injectRemoteRecv.Inject(); err != nil {
		return reply{}, fmt.Errorf("shard %d %s: %w", r.id, path, err)
	}
	data, err := readReply(resp, maxWireBytes)
	if err != nil {
		return reply{}, fmt.Errorf("shard %d %s: read response: %w", r.id, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(data))
		var we WireError
		if json.Unmarshal(data, &we) == nil && we.Error != "" {
			msg = we.Error
		}
		err := fmt.Errorf("shard %d %s: HTTP %d: %s", r.id, path, resp.StatusCode, msg)
		if resp.StatusCode >= 400 && resp.StatusCode < 500 &&
			resp.StatusCode != http.StatusRequestTimeout && resp.StatusCode != http.StatusTooManyRequests {
			// The server understood and rejected the request; retrying
			// the same bytes cannot succeed.
			err = fmt.Errorf("%w: %w", fault.ErrNoRetry, err)
		}
		return reply{}, err
	}
	return reply{body: data, hdr: resp.Header}, nil
}

// readReply reads a response body of at most limit bytes. A larger body
// is refused by name as a permanent failure instead of being decoded as a
// silently truncated prefix.
func readReply(resp *http.Response, limit int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("%w: body exceeds %d bytes", fault.ErrNoRetry, limit)
	}
	return data, nil
}

// probeOnce performs one health probe, updating liveness state and
// emitting probe_up / probe_down transition events.
func (r *RemoteShard) probeOnce(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.addr+"/shard/health", nil)
	if err != nil {
		return err
	}
	start := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		r.setAlive(false, 0)
		return fmt.Errorf("shard %d health: %w", r.id, err)
	}
	defer resp.Body.Close()
	data, err := readReply(resp, 1<<20)
	if err != nil {
		r.setAlive(false, 0)
		return fmt.Errorf("shard %d health: read response: %w", r.id, err)
	}
	if resp.StatusCode != http.StatusOK {
		r.setAlive(false, 0)
		return fmt.Errorf("shard %d health: HTTP %d", r.id, resp.StatusCode)
	}
	hw, err := decodeHealth(data)
	if err != nil {
		r.setAlive(false, 0)
		return fmt.Errorf("%w: shard %d health: %w", fault.ErrNoRetry, r.id, err)
	}
	lat := time.Since(start)
	r.mu.Lock()
	wasAlive := r.alive
	r.alive = true
	r.probeMS = float64(lat) / float64(time.Millisecond)
	r.rows = hw.Rows
	r.mu.Unlock()
	if !wasAlive {
		r.emit("probe_up", "")
	}
	return nil
}

// decodeHealth parses a /shard/health body. It accepts only a report in
// this build's WireVersion with a population of at least zero rows.
func decodeHealth(data []byte) (HealthWire, error) {
	var hw HealthWire
	if err := json.Unmarshal(data, &hw); err != nil {
		return hw, err
	}
	if hw.V != WireVersion {
		return hw, fmt.Errorf("wire version %d (this build speaks v%d)", hw.V, WireVersion)
	}
	return hw, checkRows(hw.Rows)
}

// checkRows refuses a negative population, which would turn coverage and
// the survivors' extrapolation ratio inside out.
func checkRows(n int) error {
	if n < 0 {
		return fmt.Errorf("negative row count %d", n)
	}
	return nil
}

func (r *RemoteShard) setAlive(alive bool, probeMS float64) {
	r.mu.Lock()
	was := r.alive
	r.alive = alive
	if probeMS > 0 {
		r.probeMS = probeMS
	}
	r.mu.Unlock()
	if was && !alive {
		r.emit("probe_down", "")
	}
}

// startProber launches the background health-probe loop.
func (r *RemoteShard) startProber() {
	interval := r.opt.ProbeInterval
	if interval < 0 {
		return
	}
	if interval == 0 {
		interval = 2 * time.Second
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				timeout := interval
				if timeout > 2*time.Second {
					timeout = 2 * time.Second
				}
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				_ = r.probeOnce(ctx)
				cancel()
			}
		}
	}()
}

func (r *RemoteShard) emit(typ, traceID string) {
	if r.onEvent != nil {
		r.onEvent(Event{Table: r.table, Shard: r.id, Type: typ, TraceID: traceID})
	}
}

func traceIDFrom(ctx context.Context) string {
	return trace.SpanFromContext(ctx).TraceID()
}
