package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/shard"
	"repro/internal/sketch"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/trace"
)

// injectOnline fires at online-engine entry.
var injectOnline = fault.NewPoint("core.online", "online-sampling engine entry")

// OnlineConfig tunes the query-time sampling engine.
type OnlineConfig struct {
	// DefaultRate is the sampling rate used when the query does not carry
	// its own TABLESAMPLE clause.
	DefaultRate float64
	// MinTableRows is the size threshold below which tables are never
	// sampled (sampling small tables saves nothing and costs accuracy).
	MinTableRows int
	// DistinctKeep is the per-stratum pass-through count of the distinct
	// sampler used for GROUP BY queries.
	DistinctKeep int
	// UseBlockSampling swaps the uniform row sampler for the block
	// sampler (higher scan savings, correlated rows).
	UseBlockSampling bool
	// FallbackToExact re-runs the query exactly when the realized CIs
	// miss the spec. Costs a second pass over the data (recorded in
	// Counters.Passes).
	FallbackToExact bool
	// MinExpectedSampleRows is the selectivity guard: when an attached
	// histogram predicts that selectivity × rows × rate falls below this
	// bound, sampling cannot produce a usable estimate and the engine
	// runs the query exactly instead — the "selective queries cannot be
	// sampled" boundary. Zero disables the guard.
	MinExpectedSampleRows float64
	// Seed drives sampler determinism.
	Seed int64
	// Workers is the morsel-parallel worker count; 0 defers to a context
	// override or runtime.GOMAXPROCS.
	Workers int
}

// DefaultOnlineConfig returns the engine defaults: 1% sampling, sampling
// only tables with at least 50k rows, keep-30 distinct strata.
func DefaultOnlineConfig() OnlineConfig {
	return OnlineConfig{
		DefaultRate:  0.01,
		MinTableRows: 50_000,
		DistinctKeep: 30,
		Seed:         1,
	}
}

// OnlineEngine is the query-time sampling engine in the style the paper
// attributes to Quickr: no precomputed samples, samplers injected into the
// plan at query time based on plan shape (uniform for plain aggregates,
// distinct for group-bys, universe for joins of two large tables), one
// pass over the data, honest a-posteriori confidence intervals.
type OnlineEngine struct {
	Catalog *storage.Catalog
	Config  OnlineConfig
	// Shards, when set, routes single-table aggregate queries over sharded
	// tables through the scatter-gather executor: each shard samples with
	// an independently derived seed and the partials compose into one
	// stratified estimate. A nil map (or unsharded table) leaves execution
	// exactly as before.
	Shards *shard.Map

	// mu guards the histogram registry so concurrent queries may share
	// one engine.
	mu sync.RWMutex
	// histograms holds per-column selectivity estimators keyed
	// "table.column" (see AttachHistogram).
	histograms map[string]*sketch.EquiDepthHistogram
}

// NewOnlineEngine builds an online engine with the given config.
func NewOnlineEngine(cat *storage.Catalog, cfg OnlineConfig) *OnlineEngine {
	if !(cfg.DefaultRate > 0 && cfg.DefaultRate <= 1) { // a NaN rate too
		cfg.DefaultRate = 0.01
	}
	if cfg.DistinctKeep <= 0 {
		cfg.DistinctKeep = 30
	}
	return &OnlineEngine{Catalog: cat, Config: cfg,
		histograms: make(map[string]*sketch.EquiDepthHistogram)}
}

// exactEngine builds the exact-fallback engine, inheriting the worker
// configuration so fallbacks run at the same parallelism.
func (e *OnlineEngine) exactEngine() *ExactEngine {
	return &ExactEngine{Catalog: e.Catalog, Workers: e.Config.Workers, Shards: e.Shards}
}

// AttachHistogram registers a selectivity estimator for table.column,
// enabling the MinExpectedSampleRows guard on range predicates over that
// column. Histograms are typically built once from internal/sketch.
func (e *OnlineEngine) AttachHistogram(table, column string, h *sketch.EquiDepthHistogram) {
	e.mu.Lock()
	e.histograms[table+"."+column] = h
	e.mu.Unlock()
}

// BuildHistogram scans a numeric column and attaches an equi-depth
// histogram for it.
func (e *OnlineEngine) BuildHistogram(table, column string, buckets int) error {
	t, err := e.Catalog.Table(table)
	if err != nil {
		return err
	}
	idx := t.Schema().ColumnIndex(column)
	if idx < 0 {
		return fmt.Errorf("core: histogram column %s.%s not found", table, column)
	}
	col := t.Snapshot().Column(idx)
	if !col.Type().Numeric() {
		return fmt.Errorf("core: histogram column %s.%s is not numeric", table, column)
	}
	vals := make([]float64, 0, col.Len())
	for i := 0; i < col.Len(); i++ {
		if !col.IsNull(i) {
			vals = append(vals, col.Value(i).AsFloat())
		}
	}
	if buckets <= 0 {
		buckets = 128
	}
	h, err := sketch.BuildEquiDepth(vals, buckets)
	if err != nil {
		return err
	}
	e.AttachHistogram(table, column, h)
	return nil
}

// estimatedQualifyingRows predicts how many rows of a sampled scan would
// survive its pushed-down filter, using attached histograms for
// single-column range predicates. Returns (estimate, true) when a usable
// prediction exists.
func (e *OnlineEngine) estimatedQualifyingRows(s *plan.Scan) (float64, bool) {
	if s.Filter == nil {
		return float64(s.Table.NumRows()), true
	}
	col, lo, hi, ok := rangePredicate(s.Filter)
	if !ok {
		return 0, false
	}
	e.mu.RLock()
	h := e.histograms[s.TableName+"."+col]
	e.mu.RUnlock()
	if h == nil {
		return 0, false
	}
	return h.EstimateRangeCount(lo, hi), true
}

// Name implements Engine.
func (e *OnlineEngine) Name() Technique { return TechniqueOnline }

// Execute implements Engine: decide the draw — samplers placed on the
// plan, and the shard group to scatter over — and run it. Statements that
// cannot or should not be sampled run exactly.
func (e *OnlineEngine) Execute(ctx context.Context, stmt *sqlparse.SelectStmt, spec ErrorSpec) (*Result, error) {
	return engineRun(ctx, "online", injectOnline, spec, func(ctx context.Context, spec ErrorSpec) (*Result, error) {
		d, why, err := e.draw(ctx, stmt)
		if err != nil {
			return nil, err
		}
		if why == "" {
			// Sampling a scan whose filter leaves too few expected rows
			// cannot meet any spec; run exactly instead.
			why = e.selectivityGuard(d.plan)
		}
		if why != "" {
			return e.exactEngine().fallBack(ctx, stmt, spec, "online: fell back to exact: "+why)
		}
		if e.Config.FallbackToExact {
			d.onMiss = e.exactEngine()
		}
		return execute(ctx, e.Catalog, stmt, spec, d)
	})
}

// draw plans the statement and places the engine's samplers on the plan
// (in a contract, at whatever rate the stage sets). A non-empty why says
// the statement must run exactly instead.
func (e *OnlineEngine) draw(ctx context.Context, stmt *sqlparse.SelectStmt) (d draw, why string, err error) {
	if ok, reason := supportedForSampling(stmt); !ok {
		return d, reason, nil
	}
	p, err := buildPlan(ctx, stmt, e.Catalog)
	if err != nil {
		return d, "", err
	}
	ssp, _ := trace.StartSpan(ctx, "place-samplers")
	notes := e.placeSamplers(stmt, p)
	ssp.End()
	if notes == nil {
		return d, "no table large enough to sample", nil
	}
	d = draw{tech: TechniqueOnline, guarantee: GuaranteeAPosteriori, notes: notes,
		workers: e.Config.Workers, plan: p}
	d.group = shardGroupFor(e.Shards, stmt)
	return d, "", nil
}

// selectivityGuard says why sampling the plan is pointless — a sampled
// scan whose filter leaves too few expected rows — or "".
func (e *OnlineEngine) selectivityGuard(p plan.Node) string {
	if e.Config.MinExpectedSampleRows <= 0 {
		return ""
	}
	for _, s := range plan.Scans(p) {
		if s.Sample == nil {
			continue
		}
		if q, ok := e.estimatedQualifyingRows(s); ok {
			if expected := q * s.Sample.Rate; expected < e.Config.MinExpectedSampleRows {
				return fmt.Sprintf(
					"selectivity guard — histogram predicts ~%.1f sampled qualifying rows on %s (< %g)",
					expected, s.TableName, e.Config.MinExpectedSampleRows)
			}
		}
	}
	return ""
}

// placeSamplers injects samplers into the plan scans following the plan
// shape, honoring user-specified TABLESAMPLE clauses, and notes what it
// placed. Returns nil when no table is worth sampling.
func (e *OnlineEngine) placeSamplers(stmt *sqlparse.SelectStmt, p plan.Node) []string {
	var notes []string
	scans := plan.Scans(p)

	// User-specified TABLESAMPLE wins.
	for _, s := range scans {
		if s.Sample != nil {
			return append(notes, fmt.Sprintf("online: honoring TABLESAMPLE on %s: %s",
				s.TableName, s.Sample))
		}
	}

	// Large tables only.
	var large []*plan.Scan
	for _, s := range scans {
		if s.Table.NumRows() >= e.Config.MinTableRows {
			large = append(large, s)
		}
	}
	if len(large) == 0 {
		return nil
	}
	var biggest *plan.Scan
	for _, s := range large {
		if biggest == nil || s.Table.NumRows() > biggest.Table.NumRows() {
			biggest = s
		}
	}
	uniformOnBiggest := func(why string) {
		kind := sample.KindUniformRow
		if e.Config.UseBlockSampling {
			kind = sample.KindBlock
		}
		biggest.Sample = &sample.Spec{Kind: kind, Rate: e.Config.DefaultRate, Seed: e.Config.Seed}
		notes = append(notes, fmt.Sprintf("online: %s sampler on %s at %.4g (%s)",
			kind, biggest.TableName, e.Config.DefaultRate, why))
	}

	// Case 1: GROUP BY. Only the largest (fact) table is sampled:
	// sampling a dimension that carries the group columns starves every
	// group's join fan-out and blows up per-group variance. If the group
	// columns live on the fact table, the distinct sampler guarantees
	// group survival; if they live on a (kept-whole) dimension, a plain
	// uniform sample of the fact preserves groups through the join.
	if len(stmt.GroupBy) > 0 {
		if s, cols := groupScanAndColumns(stmt, []*plan.Scan{biggest}); s != nil {
			s.Sample = &sample.Spec{
				Kind:          sample.KindDistinct,
				Rate:          e.Config.DefaultRate,
				KeyColumns:    cols,
				KeepThreshold: e.Config.DistinctKeep,
				Seed:          e.Config.Seed,
			}
			notes = append(notes, fmt.Sprintf("online: distinct sampler on %s keyed on %v",
				s.TableName, cols))
			return notes
		}
		uniformOnBiggest("group columns live on unsampled tables, which stay whole")
		return notes
	}

	// Case 2: two large tables joined on a single-column equation ->
	// universe sampler on that key on both sides, with a shared salt so
	// the key subsets align exactly.
	if len(large) >= 2 {
		if pr, ok := universePair(p, large); ok {
			salt := uint64(e.Config.Seed)*0x9e3779b97f4a7c15 + 0x1234
			pr.left.Sample = &sample.Spec{
				Kind: sample.KindUniverse, Rate: e.Config.DefaultRate,
				KeyColumns: []string{pr.leftCol}, Salt: salt,
			}
			pr.right.Sample = &sample.Spec{
				Kind: sample.KindUniverse, Rate: e.Config.DefaultRate,
				KeyColumns: []string{pr.rightCol}, Salt: salt,
				// The left side carries the 1/rate HT weight; inclusion
				// of a joined pair is perfectly correlated across sides.
				NoWeight: true,
			}
			notes = append(notes, fmt.Sprintf(
				"online: universe samplers on %s(%s) and %s(%s), shared salt",
				pr.left.TableName, pr.leftCol, pr.right.TableName, pr.rightCol))
			return notes
		}
	}

	// Case 3: uniform (or block) sampling on the largest table.
	uniformOnBiggest("default")
	return notes
}

// groupScanAndColumns finds a single large scan that carries all GROUP BY
// columns, returning it and the column names.
func groupScanAndColumns(stmt *sqlparse.SelectStmt, large []*plan.Scan) (*plan.Scan, []string) {
	var cols []string
	for _, g := range stmt.GroupBy {
		cols = append(cols, expr.Columns(g)...)
	}
	if len(cols) == 0 {
		return nil, nil
	}
	for _, s := range large {
		all := true
		for _, c := range cols {
			if s.Table.Schema().ColumnIndex(c) < 0 {
				all = false
				break
			}
		}
		if all {
			return s, cols
		}
	}
	return nil, nil
}

type universeJoin struct {
	left, right       *plan.Scan
	leftCol, rightCol string
}

// universePair finds a join equation l.col = r.col connecting two distinct
// large scans with bare column keys on both sides — the shape the universe
// sampler requires (both sides hash the same key domain).
func universePair(p plan.Node, large []*plan.Scan) (universeJoin, bool) {
	largeSet := make(map[*plan.Scan]bool, len(large))
	for _, s := range large {
		largeSet[s] = true
	}
	var found universeJoin
	ok := false
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		if ok {
			return
		}
		if j, isJoin := n.(*plan.Join); isJoin {
			for i := range j.LeftKeys {
				lcols := expr.Columns(j.LeftKeys[i])
				rcols := expr.Columns(j.RightKeys[i])
				if len(lcols) != 1 || len(rcols) != 1 {
					continue
				}
				ls := owningScan(j.Left, lcols[0])
				rs := owningScan(j.Right, rcols[0])
				if ls != nil && rs != nil && ls != rs && largeSet[ls] && largeSet[rs] {
					found = universeJoin{left: ls, right: rs, leftCol: lcols[0], rightCol: rcols[0]}
					ok = true
					return
				}
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(p)
	return found, ok
}

func owningScan(n plan.Node, col string) *plan.Scan {
	for _, s := range plan.Scans(n) {
		if s.Table.Schema().ColumnIndex(col) >= 0 {
			return s
		}
	}
	return nil
}

// firstSampler returns the first scan's sampler spec in plan order, or nil
// when no scan samples.
func firstSampler(p plan.Node) *sample.Spec {
	for _, s := range plan.Scans(p) {
		if s.Sample != nil {
			return s.Sample
		}
	}
	return nil
}

// sampledRows totals the row counts of tables that carry samplers.
func sampledRows(p plan.Node) int64 {
	var total int64
	for _, s := range plan.Scans(p) {
		if s.Sample != nil {
			total += int64(s.Table.NumRows())
		}
	}
	return total
}
