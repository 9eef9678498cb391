package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/sketch"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/storage"
)

// injectSynopsis fires at synopsis-engine entry.
var injectSynopsis = fault.NewPoint("core.synopsis", "synopsis engine entry")

// SynopsisEngine answers a narrow class of queries from precomputed
// synopses in O(synopsis) time, independent of table size:
//
//   - COUNT(*) with a single range predicate on a summarized numeric
//     column — equi-depth histogram;
//   - COUNT(DISTINCT col) on a summarized column — HyperLogLog;
//   - COUNT(*) with a single equality predicate on a summarized column —
//     Count-Min sketch.
//
// Anything else is unsupported: the generality limit of synopsis-based
// AQP that pushes systems toward sampling.
type SynopsisEngine struct {
	Catalog *storage.Catalog

	// mu guards the synopsis registries: queries read them concurrently,
	// BuildColumn writes.
	mu         sync.RWMutex
	histograms map[string]*sketch.EquiDepthHistogram // table.col
	hlls       map[string]*sketch.HyperLogLog
	cms        map[string]*sketch.CountMin
	built      map[string]synLineage // table.col -> base watermark at build
	buildRows  int64
}

// synLineage is the base-table watermark when a column's synopses were
// built; audits use it to attribute coverage misses to drift.
type synLineage struct {
	version uint64
	rows    int
}

// NewSynopsisEngine builds an empty synopsis engine.
func NewSynopsisEngine(cat *storage.Catalog) *SynopsisEngine {
	return &SynopsisEngine{
		Catalog:    cat,
		histograms: make(map[string]*sketch.EquiDepthHistogram),
		hlls:       make(map[string]*sketch.HyperLogLog),
		cms:        make(map[string]*sketch.CountMin),
		built:      make(map[string]synLineage),
	}
}

// Name implements Engine.
func (e *SynopsisEngine) Name() Technique { return TechniqueSynopsis }

// BuildRows returns the cumulative base rows scanned to build synopses.
func (e *SynopsisEngine) BuildRows() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.buildRows
}

func synKey(table, col string) string { return table + "." + col }

// BuildColumn builds all three synopses for one column (histogram only
// for numeric columns).
func (e *SynopsisEngine) BuildColumn(table, col string, buckets int) error {
	t, err := e.Catalog.Table(table)
	if err != nil {
		return err
	}
	idx := t.Schema().ColumnIndex(col)
	if idx < 0 {
		return fmt.Errorf("core: synopsis column %s.%s not found", table, col)
	}
	version := t.Version()
	c := t.Snapshot().Column(idx)
	key := synKey(table, col)
	hll, err := sketch.NewHyperLogLog(14)
	if err != nil {
		return err
	}
	cm, err := sketch.NewCountMin(0.0005, 0.01)
	if err != nil {
		return err
	}
	var numeric []float64
	for i := 0; i < c.Len(); i++ {
		if c.IsNull(i) {
			continue
		}
		v := c.Value(i)
		gk := v.GroupKey()
		hll.Add(gk)
		cm.Add(gk, 1)
		if c.Type().Numeric() {
			numeric = append(numeric, v.AsFloat())
		}
	}
	var hist *sketch.EquiDepthHistogram
	if len(numeric) > 0 {
		if buckets <= 0 {
			buckets = 128
		}
		hist, err = sketch.BuildEquiDepth(numeric, buckets)
		if err != nil {
			return err
		}
	}
	e.mu.Lock()
	e.buildRows += int64(c.Len())
	e.hlls[key] = hll
	e.cms[key] = cm
	if hist != nil {
		e.histograms[key] = hist
	}
	e.built[key] = synLineage{version: version, rows: c.Len()}
	e.mu.Unlock()
	return nil
}

// histogram returns the equi-depth histogram built for table.col, or nil.
func (e *SynopsisEngine) histogram(table, col string) *sketch.EquiDepthHistogram {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.histograms[synKey(table, col)]
}

// Execute implements Engine. Unsupported queries return an error — the
// Advisor is responsible for routing them elsewhere. Synopsis answers are
// O(synopsis) — no scan to cancel — so the context is only checked once
// up front.
func (e *SynopsisEngine) Execute(ctx context.Context, stmt *sqlparse.SelectStmt, spec ErrorSpec) (*Result, error) {
	return engineRun(ctx, "synopsis", injectSynopsis, spec, func(ctx context.Context, spec ErrorSpec) (*Result, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		est, name, iv, key, err := e.answer(stmt)
		if err != nil {
			return nil, err
		}
		val := storage.Float64(est)
		out := &Result{
			Columns:   []string{name},
			Rows:      [][]storage.Value{{val}},
			Technique: TechniqueSynopsis,
			Guarantee: GuaranteeAPosteriori,
			Spec:      spec,
		}
		rel := iv.RelHalfWidth(est)
		out.Items = [][]ItemResult{{{
			Name: name, Value: val, IsAggregate: true, HasCI: true, CI: iv, RelHalfWidth: rel,
		}}}
		out.Diagnostics.SpecSatisfied = rel <= spec.RelError
		out.Diagnostics.Lineage = queryTimeLineage(e.Catalog, stmt.From.Name)
		out.Diagnostics.Lineage.SampleName = key
		e.mu.RLock()
		if bl, ok := e.built[key]; ok {
			out.Diagnostics.Lineage.BuildVersion = bl.version
			out.Diagnostics.Lineage.BuildRows = bl.rows
		}
		e.mu.RUnlock()
		return out, nil
	})
}

// answer pattern-matches the supported query shapes.
func (e *SynopsisEngine) answer(stmt *sqlparse.SelectStmt) (float64, string, stats.Interval, string, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	none := stats.Interval{}
	if len(stmt.Joins) > 0 || len(stmt.GroupBy) > 0 || stmt.Having != nil ||
		len(stmt.Items) != 1 {
		return 0, "", none, "", fmt.Errorf("core: synopsis supports single-aggregate single-table queries")
	}
	agg, ok := stmt.Items[0].Expr.(*sqlparse.AggExpr)
	if !ok || agg.Func != sqlparse.AggCount {
		return 0, "", none, "", fmt.Errorf("core: synopsis supports COUNT queries only")
	}
	table := stmt.From.Name
	name := stmt.Items[0].Name(0)

	// COUNT(DISTINCT col), no WHERE.
	if agg.Distinct && agg.Arg != nil && stmt.Where == nil {
		col, ok := agg.Arg.(*expr.ColRef)
		if !ok {
			return 0, "", none, "", fmt.Errorf("core: COUNT(DISTINCT) needs a bare column")
		}
		hll := e.hlls[synKey(table, col.Name)]
		if hll == nil {
			return 0, "", none, "", fmt.Errorf("core: no HLL for %s.%s", table, col.Name)
		}
		est := hll.Estimate()
		se := hll.StdError() * est
		iv := stats.Interval{Lo: est - 2*se, Hi: est + 2*se, Confidence: 0.95}
		return est, name, iv, synKey(table, col.Name), nil
	}

	if !agg.Star || stmt.Where == nil {
		return 0, "", none, "", fmt.Errorf("core: synopsis COUNT needs WHERE or DISTINCT")
	}

	// COUNT(*) WHERE col = literal -> Count-Min.
	if col, op, lit, ok := plan.ColumnCompare(stmt.Where); ok && op == expr.OpEq {
		cm := e.cms[synKey(table, col.Name)]
		if cm == nil {
			return 0, "", none, "", fmt.Errorf("core: no CMS for %s.%s", table, col.Name)
		}
		est := float64(cm.Estimate(lit.GroupKey()))
		bound := cm.ErrorBound()
		iv := stats.Interval{Lo: math.Max(est-bound, 0), Hi: est, Confidence: 0.99}
		// CMS overestimates: the true count lies in [est-εN, est].
		return est, name, iv, synKey(table, col.Name), nil
	}

	// COUNT(*) WHERE range predicate(s) on one numeric column.
	col, lo, hi, ok := rangePredicate(stmt.Where)
	if ok {
		h := e.histograms[synKey(table, col)]
		if h == nil {
			return 0, "", none, "", fmt.Errorf("core: no histogram for %s.%s", table, col)
		}
		est := h.EstimateRangeCount(lo, hi)
		// Histogram error is bounded by the straddling buckets' mass.
		slack := 2 * h.Total() / float64(h.Buckets())
		iv := stats.Interval{Lo: math.Max(est-slack, 0), Hi: est + slack, Confidence: 0.95}
		return est, name, iv, synKey(table, col), nil
	}
	return 0, "", none, "", fmt.Errorf("core: unsupported predicate for synopsis answering")
}

// rangePredicate recognizes conjunctions of comparisons (>=, >, <=, <, =)
// of one column with numeric literals, BETWEEN among them, returning the
// [lo, hi] range.
func rangePredicate(e expr.Expr) (col string, lo, hi float64, ok bool) {
	lo, hi = math.Inf(-1), math.Inf(1)
	for _, c := range plan.SplitAnd(e) {
		cr, op, lit, isCmp := plan.ColumnCompare(c)
		if !isCmp || !lit.Typ.Numeric() || (col != "" && col != cr.Name) {
			return "", 0, 0, false
		}
		col = cr.Name
		v := lit.AsFloat()
		switch op {
		case expr.OpGe, expr.OpGt:
			lo = math.Max(lo, v)
		case expr.OpLe, expr.OpLt:
			hi = math.Min(hi, v)
		case expr.OpEq:
			lo = math.Max(lo, v)
			hi = math.Min(hi, v)
		default:
			return "", 0, 0, false
		}
	}
	return col, lo, hi, true
}
