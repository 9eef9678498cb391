package shard

// RemoteShard: the network implementation of the Shard interface, wrapped
// in a robustness envelope. Every call gets (1) a per-call deadline
// derived from the query deadline minus gather slack, (2) deterministic
// seeded-jitter retries for these idempotent endpoints, with permanent
// (4xx) failures exempted via fault.ErrNoRetry and the retry budget
// capped and counted, and (3) tail-latency hedging: when the first
// attempt is slower than a p95-based delay, a second identical request
// fires and the first response wins, the loser cancelled through the
// shared context. The hedge rate is capped so a persistently slow server
// degrades into ordinary timeouts instead of doubling its own load.
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
	"sort"
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
	// maxRemoteTries caps the retry budget per logical call regardless of
	// configuration: a shard that needs more than 4 attempts is degraded,
	// not retried into availability.
	maxRemoteTries = 4
	// maxWireBytes bounds a response read (64 MiB — far above any real
	// partial, small enough to contain a runaway server). A larger body
	// is refused, never decoded as a truncated prefix.
	maxWireBytes = 64 << 20
	// coldHedgeDelay is the hedge delay before the latency ring has
	// enough observations to estimate a p95.
	coldHedgeDelay = 25 * time.Millisecond
	// gatherSlack is reserved out of the query deadline for the merge/
	// finalize step after the last shard answers.
	gatherSlack = 100 * time.Millisecond
	// hedgeMaxFraction caps hedged calls as a fraction of total calls.
	hedgeMaxFraction = 0.1
)

// RemoteOptions tunes the remote-shard client envelope. The zero value
// gives sane defaults throughout.
type RemoteOptions struct {
	// CallTimeout caps any single RPC (default 10s). The effective
	// per-call deadline is min(CallTimeout, query deadline − gatherSlack).
	CallTimeout time.Duration
	// Retry tunes the per-call retry envelope. Tries is capped at 4; the
	// jitter is seeded per shard, so replays retry identically.
	Retry fault.RetryConfig
	// HedgeDelay fixes the hedge delay. 0 selects the adaptive delay: the
	// p95 of the shard's recent call latencies (25ms until warmed up).
	// Negative disables hedging. Hedged calls never exceed
	// hedgeMaxFraction of all calls.
	HedgeDelay time.Duration
	// ProbeInterval is the background health-probe cadence (default 2s).
	// Negative disables background probing (the attach-time probe still
	// runs).
	ProbeInterval time.Duration
}

// latRing is a fixed ring of recent call latencies for the adaptive
// hedge delay.
type latRing struct {
	mu   sync.Mutex
	buf  [64]time.Duration
	n    int // total observations (saturating at len(buf) for reads)
	next int
}

func (r *latRing) add(d time.Duration) {
	r.mu.Lock()
	r.buf[r.next] = d
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// quantile returns the q-quantile of the ring, requiring at least 8
// observations before it claims to know anything.
func (r *latRing) quantile(q float64) (time.Duration, bool) {
	r.mu.Lock()
	n := r.n
	tmp := make([]time.Duration, n)
	copy(tmp, r.buf[:n])
	r.mu.Unlock()
	if n < 8 {
		return 0, false
	}
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	idx := int(q * float64(n-1))
	return tmp[idx], true
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

	calls     atomic.Int64
	retries   atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64

	lats latRing

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
// retry/hedge envelope, decode the partial the reply body carries.
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
		Hedges:         r.hedges.Load(),
		HedgeWins:      r.hedgeWins.Load(),
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

// call runs one logical RPC through the retry envelope. attempts beyond
// the first are counted and surfaced as events/metrics.
func (r *RemoteShard) call(ctx context.Context, path string, body []byte) (reply, error) {
	cfg := r.opt.Retry
	if cfg.Tries <= 0 {
		cfg.Tries = 3
	}
	if cfg.Tries > maxRemoteTries {
		cfg.Tries = maxRemoteTries
	}
	if cfg.Seed == 0 {
		cfg.Seed = int64(r.id) + 1
	}
	tid := traceIDFrom(ctx)
	attempt := 0
	var rep reply
	err := fault.Retry(ctx, cfg, func() (err error) {
		attempt++
		if attempt > 1 {
			r.retries.Add(1)
			r.emit("retry", tid)
		}
		rep, err = r.hedged(ctx, path, body)
		return err
	})
	return rep, err
}

// hedged runs one attempt with tail-latency hedging: if the first request
// hasn't answered within the hedge delay (and the hedge budget allows), a
// second identical request fires; the first response wins and the loser
// is cancelled through the shared context.
func (r *RemoteShard) hedged(ctx context.Context, path string, body []byte) (reply, error) {
	r.calls.Add(1)
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type result struct {
		rep    reply
		err    error
		hedged bool
	}
	ch := make(chan result, 2)
	launch := func(isHedge bool) {
		rep, err := r.once(hctx, path, body)
		ch <- result{rep, err, isHedge}
	}
	go launch(false)
	outstanding := 1

	var hedgeTimer <-chan time.Time
	if d, ok := r.hedgeDelay(); ok {
		hedgeTimer = time.After(d)
	}

	var firstErr error
	for {
		select {
		case <-hedgeTimer:
			hedgeTimer = nil
			r.hedges.Add(1)
			r.emit("hedge", traceIDFrom(ctx))
			outstanding++
			go launch(true)
		case res := <-ch:
			outstanding--
			if res.err == nil {
				cancel() // release the loser, if one is still in flight
				if res.hedged {
					r.hedgeWins.Add(1)
					r.emit("hedge_win", traceIDFrom(ctx))
				}
				return res.rep, nil
			}
			if firstErr == nil {
				firstErr = res.err
			}
			if outstanding == 0 {
				// Fast failures don't hedge: the retry envelope, not the
				// hedger, owns the re-attempt decision.
				return reply{}, firstErr
			}
		case <-ctx.Done():
			return reply{}, ctx.Err()
		}
	}
}

// hedgeDelay decides whether this call may hedge, and after how long.
func (r *RemoteShard) hedgeDelay() (time.Duration, bool) {
	if r.opt.HedgeDelay < 0 {
		return 0, false
	}
	// Budget: hedges may not exceed hedgeMaxFraction of calls (+1 so a
	// cold client can hedge its very first straggler).
	if float64(r.hedges.Load()) >= hedgeMaxFraction*float64(r.calls.Load())+1 {
		return 0, false
	}
	if r.opt.HedgeDelay > 0 {
		return r.opt.HedgeDelay, true
	}
	if d, ok := r.lats.quantile(0.95); ok {
		if d < time.Millisecond {
			d = time.Millisecond
		}
		return d, true
	}
	return coldHedgeDelay, true
}

// once issues a single HTTP request, threading the chaos fault points and
// recording the latency of successful calls for the adaptive hedge delay.
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
	start := time.Now()
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
	r.lats.add(time.Since(start))
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
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
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
	if sp := trace.SpanFromContext(ctx); sp != nil {
		if tid := sp.TraceID(); !tid.IsZero() {
			return tid.String()
		}
	}
	return ""
}
