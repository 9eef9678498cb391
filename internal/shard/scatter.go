package shard

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Event is one shard-level occurrence delivered to the group observer
// (server metrics and flight records): a shard's outcome in one scatter,
// or a remote envelope event.
type Event struct {
	Table string
	Shard int
	// Type is a scatter outcome — "ok", "fail", "open" (breaker
	// rejected), or "pruned" — or a remote envelope event: "retry" (an
	// idempotent call re-attempted), "probe_down" / "probe_up"
	// (background health-probe transitions).
	Type string
	// TraceID is the scatter's trace identifier ("" when the query ran
	// untraced), letting downstream recorders attribute the outcome to
	// its query by identity rather than by time overlap.
	TraceID string
}

// ExecOptions tunes one scatter execution.
type ExecOptions struct {
	// Workers is the total worker budget, divided evenly across shards
	// (each shard gets at least one).
	Workers int
	// Sample, when non-nil, is the sampler spec to push onto every
	// shard's scan; each shard's copy gets an independently derived seed.
	// Nil runs the shards exact (any statement-level TABLESAMPLE is
	// cleared, matching the exact engine).
	Sample *sample.Spec
	// AllowDegraded lets the query succeed on surviving shards when some
	// fail; false fails the whole query on the first shard error.
	AllowDegraded bool
	// ShardRates, when non-nil, overrides Sample.Rate per shard (indexed
	// by shard ID) — the Neyman-allocated stage-two fractions of a
	// contract run. Must have one entry per shard.
	ShardRates []float64
	// CollectMoments asks the scatter to record each surviving shard's
	// per-slot pilot moments before the merge consumes the partials.
	CollectMoments bool
}

// ShardOutcome is one shard's result in a ScatterResult.
type ShardOutcome struct {
	ID     int
	Rows   int
	Status string // "ok", "fail", "open", "pruned"
	Err    error
}

// ScatterResult is the gathered outcome of a scatter execution.
type ScatterResult struct {
	// Partial is the merged partial state of all surviving shards, ready
	// for exec.FinalizeAggPartial.
	Partial  *exec.AggPartial
	Outcomes []ShardOutcome
	// TotalRows is the group population; CoveredRows the population of
	// shards that contributed (succeeded or were provably empty of
	// matches, i.e. pruned).
	TotalRows   int
	CoveredRows int
	// Failed and Pruned list shard IDs by outcome.
	Failed []int
	Pruned []int
	// ShardMoments holds each shard's per-slot pilot moments (nil entry
	// for failed/pruned shards), populated when ExecOptions.CollectMoments
	// is set. Extracted before the ordered merge mutates the partials.
	ShardMoments [][]exec.SlotMoment
}

// Degraded reports whether any shard failed to contribute.
func (r *ScatterResult) Degraded() bool { return len(r.Failed) > 0 }

// Scatter executes the statement's aggregate subtree on every shard
// concurrently and gathers the partials in shard-index order. Sampler
// seeds are derived per shard so cross-shard inclusion decisions are
// independent; range groups additionally prune shards whose key bounds
// cannot satisfy a range predicate on the shard key. Per-shard circuit
// breakers reject work while open, and panics inside a shard (including
// injected ones) are contained to that shard's outcome.
func (g *Group) Scatter(ctx context.Context, stmt *sqlparse.SelectStmt, opt ExecOptions) (*ScatterResult, error) {
	if len(stmt.Joins) > 0 {
		return nil, fmt.Errorf("shard: scatter does not support joins")
	}
	if !stmt.HasAggregates() {
		return nil, fmt.Errorf("shard: scatter requires an aggregate query")
	}
	if err := g.Sync(); err != nil {
		return nil, err
	}

	n := len(g.shards)
	per := opt.Workers / n
	if per < 1 {
		per = 1
	}

	// Validate the statement's plan once against the base table, so a
	// malformed query fails the whole scatter loudly instead of surfacing
	// as N identical per-shard failures (or a "degraded" success).
	base, err := BuildShardQueryPlan(Query{Stmt: stmt, Sample: opt.Sample}, g.base)
	if err != nil {
		return nil, err
	}
	agg := plan.FindAggregate(base)

	res := &ScatterResult{Outcomes: make([]ShardOutcome, n)}
	queries := make([]Query, n)
	skip := make([]string, n) // non-"" = skipped with this status
	lo, hi := keyInterval(stmt.Where, g.key.Column)
	for i, sh := range g.shards {
		res.TotalRows += sh.Rows()
		res.Outcomes[i] = ShardOutcome{ID: i, Rows: sh.Rows()}
		if g.key.Kind == KeyRange && n > 1 && pruned(sh, lo, hi) {
			skip[i] = "pruned"
			continue
		}
		if !g.breakers[i].Allow() {
			skip[i] = "open"
			continue
		}
		// Resolve the sampler spec per shard here, coordinator-side: the
		// derived seed and any per-shard rate override travel inside the
		// Query, so local and remote shards sample byte-identically.
		q := Query{Stmt: stmt}
		if opt.Sample != nil {
			spec := *opt.Sample
			if i < len(opt.ShardRates) && opt.ShardRates[i] >= 0 {
				spec.Rate = opt.ShardRates[i]
			}
			spec.Seed = DeriveSeed(opt.Sample.Seed, i)
			q.Sample = &spec
		}
		queries[i] = q
	}

	// Span names are built only for a traced query. Per-shard spans are
	// pre-created in index order so profiles are stable. Each
	// leg is stamped with its own W3C traceparent — the exact header a
	// remote-shard RPC will carry when this seam goes over the wire — so
	// exported spans prove context propagation per leg.
	var sp *trace.Span
	sctx := ctx
	spans := make([]*trace.Span, n)
	if trace.Enabled(ctx) {
		sp, sctx = trace.StartSpan(ctx, fmt.Sprintf("scatter %s (%d shards)", g.name, n))
		sp.SetAttr("key", g.key.String())
		for i := range g.shards {
			spans[i] = sp.StartChild(fmt.Sprintf("shard %d (%d rows)", i, g.shards[i].Rows()))
			if tp := spans[i].Traceparent(); tp != "" {
				spans[i].SetAttr("traceparent", tp)
			}
		}
	}
	defer sp.End()
	scatterTID := sp.TraceID()

	parts := make([]*exec.AggPartial, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range g.shards {
		if skip[i] != "" {
			spans[i].SetAttr("skipped", skip[i])
			spans[i].End()
			continue
		}
		wg.Add(1)
		// Each leg runs under its own span's context, so a remote shard
		// reads its leg's traceparent — not the scatter parent's — when
		// stamping the RPC headers.
		lctx := trace.ContextWithSpan(sctx, spans[i])
		go func(i int, lctx context.Context) {
			defer wg.Done()
			defer spans[i].End()
			parts[i], errs[i] = g.runShard(lctx, i, queries[i], per)
		}(i, lctx)
	}
	wg.Wait()
	// A reply can decode cleanly and still be shaped for another plan;
	// merging it would fault the whole query. It is that shard's failure.
	for i, p := range parts {
		if p != nil && !p.Fits(len(agg.GroupBy), len(agg.Aggs)) {
			parts[i], errs[i] = nil, fmt.Errorf("shard %d: partial does not fit the plan's %d group values and %d aggregates",
				i, len(agg.GroupBy), len(agg.Aggs))
		}
	}

	// Gather in shard-index order: breaker and observer bookkeeping, then
	// the ordered merge (which IS the stratified composition).
	for i, sh := range g.shards {
		o := &res.Outcomes[i]
		switch {
		case skip[i] == "pruned":
			o.Status = "pruned"
			res.Pruned = append(res.Pruned, i)
			res.CoveredRows += sh.Rows() // provably holds no matching rows
		case skip[i] == "open":
			o.Status = "open"
			res.Failed = append(res.Failed, i)
		case errs[i] != nil:
			o.Status, o.Err = "fail", errs[i]
			g.breakers[i].Record(false)
			res.Failed = append(res.Failed, i)
		default:
			o.Status = "ok"
			g.breakers[i].Record(true)
			res.CoveredRows += sh.Rows()
		}
		g.observe(Event{Table: g.name, Shard: i, Type: o.Status, TraceID: scatterTID})
	}

	if len(res.Failed) > 0 && !opt.AllowDegraded {
		for _, i := range res.Failed {
			if res.Outcomes[i].Err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, res.Outcomes[i].Err)
			}
		}
		return nil, fmt.Errorf("shard: %d shard(s) unavailable (breaker open)", len(res.Failed))
	}
	if opt.CollectMoments {
		// Extract before MergeAggPartials mutates its first operand.
		res.ShardMoments = make([][]exec.SlotMoment, n)
		for i, p := range parts {
			res.ShardMoments[i] = p.SlotMoments()
		}
	}
	res.Partial = exec.MergeAggPartials(parts)
	if res.Partial == nil {
		if len(res.Pruned) > 0 && len(res.Failed) == 0 {
			// Every shard was provably empty of matches; the query still
			// has a well-defined (empty-input) result.
			res.Partial = new(exec.AggPartial)
		} else {
			return nil, fmt.Errorf("shard: no shard of %s produced a result (%s)", g.name, joinErrs(errs))
		}
	}
	sp.SetAttrInt("covered_rows", int64(res.CoveredRows))
	sp.SetAttrInt("failed", int64(len(res.Failed)))
	return res, nil
}

// runShard executes one shard's estimate, containing panics.
func (g *Group) runShard(ctx context.Context, i int, q Query, workers int) (part *exec.AggPartial, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fault.AsError(r)
		}
	}()
	return g.shards[i].Estimate(ctx, q, workers)
}

// keyInterval extracts the [lo, hi] constraint a WHERE clause places on
// col through its top-level AND conjuncts (bounds are kept inclusive, so
// pruning is conservative). Either bound may be null = unconstrained.
func keyInterval(where expr.Expr, col string) (lo, hi storage.Value) {
	if where == nil || col == "" {
		return
	}
	tighten := func(dst *storage.Value, v storage.Value, upper bool) {
		if dst.IsNull() || (upper && v.Compare(*dst) < 0) || (!upper && v.Compare(*dst) > 0) {
			*dst = v
		}
	}
	for _, c := range plan.SplitAnd(where) {
		cr, op, lit, ok := plan.ColumnCompare(c)
		if !ok || !strings.EqualFold(cr.Name, col) || lit.IsNull() {
			continue
		}
		switch op {
		case expr.OpEq:
			tighten(&lo, lit, false)
			tighten(&hi, lit, true)
		case expr.OpLt, expr.OpLe:
			tighten(&hi, lit, true)
		case expr.OpGt, expr.OpGe:
			tighten(&lo, lit, false)
		}
	}
	return lo, hi
}

// pruned reports whether the shard's observed key bounds fall entirely
// outside the predicate interval — the shard provably holds no matching
// rows and is skipped as covered, not degraded. Shards that don't track
// bounds (remote, or hash-routed) never prune, which is always safe.
func pruned(sh Shard, lo, hi storage.Value) bool {
	min, max, ok := sh.Bounds()
	if !ok {
		return false
	}
	if !lo.IsNull() && max.Compare(lo) < 0 {
		return true
	}
	if !hi.IsNull() && min.Compare(hi) > 0 {
		return true
	}
	return false
}

func joinErrs(errs []error) string {
	var parts []string
	for i, e := range errs {
		if e != nil {
			parts = append(parts, fmt.Sprintf("shard %d: %v", i, e))
		}
	}
	if len(parts) == 0 {
		return "no shards ran"
	}
	return strings.Join(parts, "; ")
}
