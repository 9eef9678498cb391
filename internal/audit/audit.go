// Package audit implements continuous accuracy auditing: a background
// lane that re-executes a sampled fraction of served approximate queries
// exactly and checks whether the claimed confidence intervals actually
// covered the truth. The paper's thesis is that the error model is the
// hard part of AQP; this package is the production instrument that keeps
// the error model honest after deployment — empirical CI coverage per
// technique and aggregate type with Wilson bounds, relative-error
// quantiles, an error budget with burn alerts, and staleness attribution
// that correlates coverage misses with rows appended after the backing
// sample was built.
//
// Two design rules keep the measurements valid and the service unharmed:
//
//  1. The audit-or-not decision is a deterministic function of a seed and
//     a per-technique arrival counter, fixed before the estimate is seen.
//     Auditing only "suspicious looking" answers would bias the coverage
//     estimate (see DESIGN.md).
//  2. Ground-truth runs borrow serving capacity only when the foreground
//     is idle, through a non-blocking low-priority gate; the audit queue
//     is bounded and sheds its oldest entry on overflow.
package audit

import (
	"context"
	"log/slog"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/trace"
)

// injectGroundTruth fires at each background ground-truth re-execution.
var injectGroundTruth = fault.NewPoint("audit.groundtruth", "auditor ground-truth re-execution")

// Executor re-executes a query exactly; *aqp.DB satisfies it.
type Executor interface {
	QueryContext(ctx context.Context, sql string) (*core.Result, error)
}

// Gate grants low-priority capacity. TryAcquireIdle must not block: it
// returns (release, true) only when serving would not be delayed — no
// foreground query waiting and a worker slot free — and (nil, false)
// otherwise.
type Gate interface {
	TryAcquireIdle() (release func(), ok bool)
}

// Event kinds delivered to Config.OnEvent.
const (
	EventAudited   = "audited"   // one ground-truth comparison completed
	EventCovered   = "covered"   // one claimed CI contained the truth
	EventMissed    = "missed"    // one claimed CI excluded the truth
	EventDropped   = "dropped"   // queue overflow shed the oldest audit
	EventDeduped   = "deduped"   // canonical SQL already audited recently
	EventViolation = "violation" // window coverage confidently under budget
	EventStale     = "stale"     // misses correlated with appended rows
	EventError     = "error"     // ground-truth execution failed
	EventUnmatched = "unmatched" // group rows differed between claim and truth
	EventPanic     = "panic"     // a panic in the audit lane was contained
)

// Event is one observable audit outcome, for wiring into a metrics
// registry. Fields beyond Kind are populated where meaningful.
type Event struct {
	Kind      string
	Technique string
	Aggregate string
	Table     string
	// RelError is the realized relative error (EventMissed/EventCovered).
	RelError float64
	// LagMS is serve-to-audit latency (EventAudited).
	LagMS float64
	// DegradedShards attributes a covered/missed outcome to the shards
	// that failed while the claim was served — a miss on a degraded,
	// extrapolated answer indicts shard loss, not the estimator.
	DegradedShards []int
	// Fingerprint is the audited query's shape hash (from the claimed
	// result's diagnostics), so covered/missed outcomes can fan out to
	// per-fingerprint coverage scorecards.
	Fingerprint string
}

// Config tunes the auditor.
type Config struct {
	// Fraction of eligible served queries audited, in [0, 1]. 0 disables
	// auditing entirely (Offer becomes a no-op).
	Fraction float64
	// QueueCap bounds the audit backlog; overflow drops the oldest
	// pending audit (default 64).
	QueueCap int
	// Window is the rolling-window size of the per-technique coverage and
	// relative-error estimators (default 256).
	Window int
	// Seed drives the deterministic audit-sampling decisions.
	Seed int64
	// Logger receives budget-burn and staleness warnings (nil discards).
	Logger *slog.Logger
	// OnEvent, when set, receives every audit outcome (called outside the
	// auditor's lock; must be safe for concurrent use).
	OnEvent func(Event)
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Window <= 0 {
		c.Window = 256
	}
	return c
}

const (
	// targetLo and targetHi bound the acceptable empirical-coverage band of
	// the error budget, around the nominal 95%.
	targetLo, targetHi = 0.93, 0.97
	// budgetMinAudits is the minimum window occupancy before budget
	// verdicts are issued: Wilson bounds on a handful of audits are too
	// wide to mean anything.
	budgetMinAudits = 30
	// staleMinMisses is how many drift-correlated misses a table needs in
	// its window before the staleness signal fires.
	staleMinMisses = 3
	// groundTruthTimeout bounds each ground-truth execution.
	groundTruthTimeout = 30 * time.Second
	// idleRetry is the backoff while the foreground keeps the gate busy.
	idleRetry = 2 * time.Millisecond
)

// job is one pending audit: everything captured at serve time. The
// claimed result is immutable after serving, so it is held by reference.
type job struct {
	canonical string
	technique string
	claimed   *core.Result
	aggName   []string // per column: aggregate func name, "" for group cols
	servedAt  time.Time
}

// estKey identifies one rolling estimator: technique × aggregate type.
type estKey struct{ technique, aggregate string }

// estimator is the rolling accuracy state for one (technique, aggregate).
type estimator struct {
	cov        *stats.RollingCoverage
	rel        *stats.RollingQuantiles
	violations int64
	violating  bool
}

// tableObs is one audit outcome attributed to a base table.
type tableObs struct {
	missed   bool
	appended int // rows added after the backing sample was built
}

// tableState is the rolling drift-attribution window for one table.
type tableState struct {
	ring  []tableObs
	next  int
	n     int
	stale bool
}

// Auditor owns the audit queue, the background worker, and the rolling
// accuracy estimators. Create with New, feed with Offer, read with
// Report, stop with Close.
type Auditor struct {
	cfg  Config
	exec Executor
	gate Gate

	mu       sync.Mutex
	queue    []*job
	seen     map[string]struct{} // canonical SQL recently offered
	seenFIFO []string
	arrivals map[string]uint64 // per-technique eligible-arrival counter
	est      map[estKey]*estimator
	tables   map[string]*tableState
	// contracts tracks the a-priori contract error budget per technique
	// (see contract.go).
	contracts map[string]*contractState
	busy      bool // worker is executing an audit
	closed    bool

	offered, sampled, deduped, dropped int64
	audited, errors, unmatched         int64
	violations, panics                 int64
	shardDegraded, shardDegradedMiss   int64
	contractAudits, contractBroken     int64

	lastTraces []string

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
}

// New creates an auditor over the exact executor. gate may be nil (no
// capacity coupling — audits run whenever queued), which is what embedded
// single-user tools want; servers pass their admission controller.
func New(exec Executor, gate Gate, cfg Config) *Auditor {
	a := &Auditor{
		cfg:       cfg.withDefaults(),
		exec:      exec,
		gate:      gate,
		seen:      make(map[string]struct{}),
		arrivals:  make(map[string]uint64),
		est:       make(map[estKey]*estimator),
		tables:    make(map[string]*tableState),
		contracts: make(map[string]*contractState),
		wake:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	go a.worker()
	return a
}

// Close stops the background worker, abandoning any pending audits.
func (a *Auditor) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	a.mu.Unlock()
	close(a.stop)
	<-a.done
}

// Backlog reports the number of queued (not yet executed) audits plus
// the one in flight, if any.
func (a *Auditor) Backlog() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.queue)
	if a.busy {
		n++
	}
	return n
}

// Drain blocks until the audit queue is empty and no audit is in flight,
// or ctx expires. It does not stop the auditor.
func (a *Auditor) Drain(ctx context.Context) error {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if a.Backlog() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Offer is OfferStmt for callers that hold only the SQL text.
func (a *Auditor) Offer(res *core.Result, sql string) { a.offer(res, sql, nil) }

// OfferStmt submits one served result, with the statement it answered, for
// consideration. It is cheap and non-blocking — hash + enqueue at worst —
// and must be called on the serving path after the response is sent (or
// immediately before — it never mutates res or stmt). Results that are
// exact or carry no CI are not eligible. The decision to audit is made
// here, deterministically, with no reference to the estimate's value —
// see the package comment.
func (a *Auditor) OfferStmt(res *core.Result, stmt *sqlparse.SelectStmt) { a.offer(res, "", stmt) }

// offer parses sql when the caller has no statement.
func (a *Auditor) offer(res *core.Result, sql string, stmt *sqlparse.SelectStmt) {
	if a == nil || a.cfg.Fraction <= 0 || res == nil {
		return
	}
	// Offer runs on the serving path: a panic here (parse, hashing,
	// bookkeeping) must cost the audit opportunity, not the response.
	defer func() {
		if r := recover(); r != nil {
			a.notePanic("offer", string(res.Technique), fault.AsError(r))
		}
	}()
	if res.Guarantee == core.GuaranteeExact || !hasCI(res) {
		return
	}
	if stmt == nil {
		var err error
		if stmt, err = sqlparse.Parse(sql); err != nil {
			return // served SQL always parses; belt and braces
		}
	}
	canonical := stmt.String()
	tech := string(res.Technique)

	var events []Event
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.offered++
	if _, dup := a.seen[canonical]; dup {
		a.deduped++
		a.mu.Unlock()
		a.emit(Event{Kind: EventDeduped, Technique: tech})
		return
	}
	a.rememberLocked(canonical)
	n := a.arrivals[tech]
	a.arrivals[tech] = n + 1
	if !decide(a.cfg.Seed, tech, n, a.cfg.Fraction) {
		a.mu.Unlock()
		return
	}
	a.sampled++
	j := &job{
		canonical: canonical,
		technique: tech,
		claimed:   res,
		aggName:   aggNames(stmt, res),
		servedAt:  time.Now(),
	}
	a.queue = append(a.queue, j)
	if len(a.queue) > a.cfg.QueueCap {
		a.queue = a.queue[1:]
		a.dropped++
		events = append(events, Event{Kind: EventDropped})
	}
	a.mu.Unlock()

	for _, ev := range events {
		a.emit(ev)
	}
	select {
	case a.wake <- struct{}{}:
	default:
	}
}

// rememberLocked adds a canonical SQL to the dedup set, evicting FIFO
// beyond 4× the queue capacity (so a steady workload re-audits a repeated
// query once its cohort has aged out, rather than never again).
func (a *Auditor) rememberLocked(canonical string) {
	limit := 4 * a.cfg.QueueCap
	if limit < 256 {
		limit = 256
	}
	a.seen[canonical] = struct{}{}
	a.seenFIFO = append(a.seenFIFO, canonical)
	for len(a.seenFIFO) > limit {
		delete(a.seen, a.seenFIFO[0])
		a.seenFIFO = a.seenFIFO[1:]
	}
}

// decide is the deterministic audit-sampling decision: a splitmix64 hash
// of (seed, technique, arrival index) mapped to [0, 1) and compared to
// the configured fraction. Nothing about the query's answer enters.
func decide(seed int64, technique string, arrival uint64, fraction float64) bool {
	if fraction >= 1 {
		return true
	}
	h := uint64(seed)
	for _, c := range []byte(technique) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	h ^= arrival + 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11)/(1<<53) < fraction
}

// hasCI reports whether any item carries a confidence interval.
func hasCI(res *core.Result) bool {
	for _, row := range res.Items {
		for _, it := range row {
			if it.IsAggregate && it.HasCI {
				return true
			}
		}
	}
	return false
}

// aggNames maps each output column to its aggregate function name ("SUM",
// "COUNT", ...), "expr" for composite aggregate items, and "" for group
// columns — the aggregate axis of the coverage estimators.
func aggNames(stmt *sqlparse.SelectStmt, res *core.Result) []string {
	names := make([]string, len(res.Columns))
	for j := range names {
		if j < len(stmt.Items) {
			if agg, ok := stmt.Items[j].Expr.(*sqlparse.AggExpr); ok {
				names[j] = string(agg.Func)
				continue
			}
		}
		if len(res.Items) > 0 && j < len(res.Items[0]) && res.Items[0][j].IsAggregate {
			names[j] = "expr"
		}
	}
	return names
}

// worker is the background audit lane: it pops jobs, waits for idle
// capacity, re-executes exactly, and folds the comparison into the
// rolling estimators.
func (a *Auditor) worker() {
	defer close(a.done)
	for {
		j := a.pop()
		if j == nil {
			select {
			case <-a.wake:
				continue
			case <-a.stop:
				return
			}
		}
		if !a.auditOne(j) {
			return
		}
	}
}

// auditOne runs one audit job under panic containment and reports whether
// the worker should keep running (false only on shutdown). A panic
// anywhere in the audit path — ground truth, comparison, estimator
// folding — is converted to a counted, logged event that poisons only
// this job; aqpd itself never dies for an audit.
func (a *Auditor) auditOne(j *job) (alive bool) {
	defer func() {
		if r := recover(); r != nil {
			a.notePanic("worker", j.technique, fault.AsError(r))
			alive = true
		}
	}()
	release, ok := a.waitIdle()
	if !ok {
		a.finish(j, nil) // stopping; drop the job without stats
		return false
	}
	// The idle slot is held only for the ground-truth execution and is
	// released even if it panics (the deferred recover above fires after).
	truth, err := func() (*core.Result, error) {
		defer func() {
			if release != nil {
				release()
			}
		}()
		return a.groundTruth(j)
	}()
	if err != nil {
		a.mu.Lock()
		a.errors++
		a.mu.Unlock()
		a.emit(Event{Kind: EventError, Technique: j.technique})
		a.idle()
		return true
	}
	a.finish(j, truth)
	return true
}

// notePanic counts and reports one contained panic; one in the worker
// ends its audit.
func (a *Auditor) notePanic(where, technique string, err error) {
	a.mu.Lock()
	a.panics++
	a.mu.Unlock()
	if a.cfg.Logger != nil {
		a.cfg.Logger.Error("audit: panic contained", "where", where,
			"technique", technique, "err", err)
	}
	a.emit(Event{Kind: EventPanic, Technique: technique})
	if where == "worker" {
		a.idle()
	}
}

// idle marks the worker's audit done. It is called after the audit's last
// event is emitted, so Backlog — and Drain — count the audit until its
// events have reached the sinks.
func (a *Auditor) idle() {
	a.mu.Lock()
	a.busy = false
	a.mu.Unlock()
}

// pop takes the oldest job and marks the worker busy, so Backlog counts
// the in-flight audit until its stats land.
func (a *Auditor) pop() *job {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.queue) == 0 {
		return nil
	}
	j := a.queue[0]
	a.queue = a.queue[1:]
	a.busy = true
	return j
}

// waitIdle blocks until the gate grants idle capacity or the auditor is
// stopped. A nil gate grants immediately.
func (a *Auditor) waitIdle() (release func(), ok bool) {
	if a.gate == nil {
		return nil, true
	}
	for {
		if release, ok := a.gate.TryAcquireIdle(); ok {
			return release, true
		}
		select {
		case <-a.stop:
			return nil, false
		case <-time.After(idleRetry):
		}
	}
}

// groundTruth re-executes the canonical SQL exactly under a span-traced
// context and bounded deadline.
func (a *Auditor) groundTruth(j *job) (*core.Result, error) {
	if err := injectGroundTruth.Inject(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), groundTruthTimeout)
	defer cancel()
	tr := trace.New("audit " + j.technique)
	ctx = trace.WithTracer(ctx, tr)
	sp, ctx := trace.StartSpan(ctx, "ground-truth")
	truth, err := a.exec.QueryContext(ctx, j.canonical)
	sp.End()
	tr.Finish()
	a.mu.Lock()
	a.lastTraces = append(a.lastTraces, tr.Profile().String())
	if len(a.lastTraces) > 4 {
		a.lastTraces = a.lastTraces[1:]
	}
	a.mu.Unlock()
	return truth, err
}

// finish folds one completed audit into the estimators. truth == nil
// only when the worker is shutting down.
func (a *Auditor) finish(j *job, truth *core.Result) {
	if truth == nil {
		a.idle()
		return
	}
	cmp := compare(j, truth)

	// Answers served off a degraded shard group carry the failed-shard
	// list so coverage misses can be attributed to shard loss.
	var degraded []int
	if sh := j.claimed.Diagnostics.Shards; sh != nil && len(sh.Degraded) > 0 {
		degraded = sh.Degraded
	}

	var events []Event
	// The unlock is deferred (not straight-line) so a panic while folding
	// estimators leaves the mutex released for the containment handler.
	func() {
		a.mu.Lock()
		defer a.mu.Unlock()
		a.audited++
		if degraded != nil {
			a.shardDegraded++
		}
		a.unmatched += int64(cmp.unmatched)
		lag := time.Since(j.servedAt)
		events = append(events, Event{Kind: EventAudited, Technique: j.technique,
			LagMS: float64(lag.Microseconds()) / 1e3})
		if cmp.unmatched > 0 {
			events = append(events, Event{Kind: EventUnmatched, Technique: j.technique})
		}
		for _, it := range cmp.items {
			key := estKey{technique: j.technique, aggregate: it.aggregate}
			e := a.est[key]
			if e == nil {
				e = &estimator{
					cov: stats.NewRollingCoverage(a.cfg.Window),
					rel: stats.NewRollingQuantiles(a.cfg.Window),
				}
				a.est[key] = e
			}
			e.cov.Push(it.covered)
			e.rel.Push(it.relErr)
			kind := EventCovered
			if !it.covered {
				kind = EventMissed
				if degraded != nil {
					a.shardDegradedMiss++
				}
			}
			events = append(events, Event{Kind: kind, Technique: j.technique,
				Aggregate: it.aggregate, RelError: it.relErr, DegradedShards: degraded,
				Fingerprint: j.claimed.Diagnostics.Fingerprint})
			events = append(events, a.checkBudgetLocked(key, e)...)
		}
		events = append(events, a.recordContractLocked(j, cmp)...)
		events = append(events, a.recordDriftLocked(j, truth, cmp)...)
	}()

	for _, ev := range events {
		a.emit(ev)
	}
	a.idle()
}

// checkBudgetLocked issues the error-budget verdict for one estimator
// after a new observation: once the window is populated, a Wilson upper
// bound confidently below the target band means the technique is burning
// its error budget — count it and warn on the transition into violation.
func (a *Auditor) checkBudgetLocked(key estKey, e *estimator) []Event {
	if e.cov.N() < budgetMinAudits {
		return nil
	}
	wil := e.cov.Wilson(0.95)
	if wil.Hi < targetLo {
		e.violations++
		a.violations++
		ev := Event{Kind: EventViolation, Technique: key.technique, Aggregate: key.aggregate}
		if !e.violating {
			e.violating = true
			if a.cfg.Logger != nil {
				a.cfg.Logger.Warn("audit: coverage budget burn",
					"technique", key.technique, "aggregate", key.aggregate,
					"coverage", e.cov.Rate(), "wilson_hi", wil.Hi,
					"target_lo", targetLo, "window", e.cov.N())
			}
		}
		return []Event{ev}
	}
	e.violating = false
	return nil
}

// recordDriftLocked attributes the audit outcome to the base table and
// re-evaluates its staleness signal: misses on answers whose backing
// sample predates appended rows, outnumbering misses on fresh answers,
// indicate the sample — not the estimator — is wrong.
func (a *Auditor) recordDriftLocked(j *job, truth *core.Result, cmp compareResult) []Event {
	lin := j.claimed.Diagnostics.Lineage
	table := lin.Table
	if table == "" {
		table = truth.Diagnostics.Lineage.Table
	}
	if table == "" {
		return nil
	}
	appended := 0
	if lin.BuildRows > 0 {
		if d := truth.Diagnostics.Lineage.TableRows - lin.BuildRows; d > 0 {
			appended = d
		}
	}
	ts := a.tables[table]
	if ts == nil {
		ts = &tableState{ring: make([]tableObs, a.cfg.Window)}
		a.tables[table] = ts
	}
	if ts.n == len(ts.ring) {
		// full: overwrite oldest
	} else {
		ts.n++
	}
	ts.ring[ts.next] = tableObs{missed: cmp.missedAny || cmp.unmatched > 0, appended: appended}
	ts.next = (ts.next + 1) % len(ts.ring)

	staleMisses, freshMisses := ts.counts()
	nowStale := staleMisses >= staleMinMisses && staleMisses > freshMisses
	var events []Event
	if nowStale && !ts.stale {
		events = append(events, Event{Kind: EventStale, Table: table})
		if a.cfg.Logger != nil {
			a.cfg.Logger.Warn("audit: sample staleness detected",
				"table", table, "stale_misses", staleMisses, "fresh_misses", freshMisses,
				"rows_appended", appended,
				"hint", "rebuild offline samples / synopses for "+table)
		}
	}
	ts.stale = nowStale
	return events
}

// counts tallies the in-window misses split by drift attribution.
func (ts *tableState) counts() (staleMisses, freshMisses int) {
	for i := 0; i < ts.n; i++ {
		obs := ts.ring[i]
		if !obs.missed {
			continue
		}
		if obs.appended > 0 {
			staleMisses++
		} else {
			freshMisses++
		}
	}
	return staleMisses, freshMisses
}

func (ts *tableState) maxAppended() int {
	m := 0
	for i := 0; i < ts.n; i++ {
		if ts.ring[i].appended > m {
			m = ts.ring[i].appended
		}
	}
	return m
}

// emit delivers one event to the hook, outside the auditor's lock.
func (a *Auditor) emit(ev Event) {
	if a.cfg.OnEvent != nil {
		a.cfg.OnEvent(ev)
	}
}

// itemOutcome is one claimed CI checked against the truth.
type itemOutcome struct {
	aggregate string
	covered   bool
	relErr    float64
}

// compareResult is everything one audit comparison yields.
type compareResult struct {
	items     []itemOutcome
	unmatched int // group rows present on one side only
	missedAny bool
}

// compare matches claimed rows to ground-truth rows by their group-key
// columns and checks every claimed CI against the exact value. Rows are
// matched by key, not position, so group ordering differences cannot
// fabricate misses; rows present on only one side (a group the sample
// missed entirely, or one that appeared after serving) are counted as
// unmatched — an error mode in its own right.
func compare(j *job, truth *core.Result) compareResult {
	var out compareResult
	claimed := j.claimed
	if len(claimed.Items) == 0 {
		return out
	}
	keyCols := make([]int, 0, len(claimed.Columns))
	for col, it := range claimed.Items[0] {
		if !it.IsAggregate {
			keyCols = append(keyCols, col)
		}
	}
	truthByKey := make(map[string][]int, len(truth.Rows))
	for i := range truth.Rows {
		k := rowKey(truth, i, keyCols)
		truthByKey[k] = append(truthByKey[k], i)
	}
	for i := range claimed.Rows {
		k := rowKey(claimed, i, keyCols)
		idxs := truthByKey[k]
		if len(idxs) == 0 {
			out.unmatched++
			out.missedAny = true
			continue
		}
		ti := idxs[0]
		truthByKey[k] = idxs[1:]
		for col, it := range claimed.Items[i] {
			if !it.IsAggregate || !it.HasCI {
				continue
			}
			tv := truth.Float(ti, col)
			covered := it.CI.Contains(tv)
			agg := "expr"
			if col < len(j.aggName) && j.aggName[col] != "" {
				agg = j.aggName[col]
			}
			out.items = append(out.items, itemOutcome{
				aggregate: agg,
				covered:   covered,
				relErr:    relError(it.Value.AsFloat(), tv),
			})
			if !covered {
				out.missedAny = true
			}
		}
	}
	for _, rest := range truthByKey {
		out.unmatched += len(rest)
		if len(rest) > 0 {
			out.missedAny = true
		}
	}
	return out
}

// rowKey renders the group-key columns of one row into a map key.
func rowKey(res *core.Result, row int, keyCols []int) string {
	if len(keyCols) == 0 {
		return ""
	}
	var b strings.Builder
	for _, c := range keyCols {
		b.WriteString(res.Rows[row][c].String())
		b.WriteByte('\x00')
	}
	return b.String()
}

// relError is |estimate-truth| / |truth|, with the 0-truth edge cases
// pinned: exact agreement is 0, anything else against a zero truth is 1.
func relError(est, truth float64) float64 {
	if truth == 0 {
		if est == 0 {
			return 0
		}
		return 1
	}
	rel := math.Abs(est-truth) / math.Abs(truth)
	if math.IsNaN(rel) || math.IsInf(rel, 0) {
		return 1
	}
	return rel
}
