package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
)

// injectOLAChunk fires once per progressive chunk, inside the engine's
// chunk-containment scope: a fired panic or error costs one chunk, not
// the estimate accumulated so far.
var injectOLAChunk = fault.NewPoint("core.ola.chunk", "OLA per-chunk processing")

// OLAConfig tunes the online-aggregation engine.
type OLAConfig struct {
	// ChunkRows is the number of rows processed between checkpoints.
	ChunkRows int
	// MaxFraction caps the fraction of the table read (1 = run to
	// completion if never stopped).
	MaxFraction float64
	// StopWhenSpecMet stops at the first checkpoint whose CIs satisfy
	// the spec. NOTE: stopping on an interim CI is the "peeking" problem
	// — the stopped-at interval no longer has its nominal coverage. The
	// engine does it when asked (it is what OLA users do) and downgrades
	// the guarantee accordingly.
	StopWhenSpecMet bool
	// MaxBuildRows caps the size of joined dimension tables: the fact table
	// is the sampling unit and every chunk joins it to the whole of each
	// dimension on the shared hash join (the simplified ripple-join
	// scheme), so a dimension is built once per chunk and must fit this
	// bound.
	MaxBuildRows int
	// Seed drives the row permutation.
	Seed int64
}

// DefaultOLAConfig processes 4096-row chunks up to the full table and
// joins dimensions up to one million rows.
func DefaultOLAConfig() OLAConfig {
	return OLAConfig{ChunkRows: 4096, MaxFraction: 1, StopWhenSpecMet: true,
		MaxBuildRows: 1 << 20, Seed: 3}
}

// Progress is one OLA checkpoint delivered to the observer callback.
type Progress struct {
	// RowsRead is the number of permuted rows consumed so far.
	RowsRead int
	// Fraction is RowsRead / table size.
	Fraction float64
	// Result is the current annotated estimate.
	Result *Result
}

// OLAEngine implements online aggregation: rows stream in random order
// and estimates with shrinking confidence intervals are emitted at every
// checkpoint. It supports aggregation queries over one table, or over a
// fact table joined to dimensions on their unique keys, whose select items
// are bare group columns or bare linear aggregates; anything else falls
// back to exact execution.
type OLAEngine struct {
	Catalog *storage.Catalog
	Config  OLAConfig

	order rowOrder // the seeded permutation every query reads a prefix of
}

// NewOLAEngine builds an OLA engine.
func NewOLAEngine(cat *storage.Catalog, cfg OLAConfig) *OLAEngine {
	if cfg.ChunkRows <= 0 {
		cfg.ChunkRows = 4096
	}
	if cfg.MaxFraction <= 0 || cfg.MaxFraction > 1 {
		cfg.MaxFraction = 1
	}
	return &OLAEngine{Catalog: cat, Config: cfg}
}

// Name implements Engine.
func (e *OLAEngine) Name() Technique { return TechniqueOLA }

// Execute implements Engine: ExecuteProgressive without an observer.
func (e *OLAEngine) Execute(ctx context.Context, stmt *sqlparse.SelectStmt, spec ErrorSpec) (*Result, error) {
	return e.run(ctx, stmt, spec, e.Config, nil)
}

// exactEngine builds the exact-fallback engine.
func (e *OLAEngine) exactEngine() *ExactEngine {
	return NewExactEngine(e.Catalog)
}

// ExecuteProgressive runs the query with checkpoints; observe (if
// non-nil) is called at each checkpoint and may return false to stop. The
// context is checked between chunks after the first chunk completes:
// cancellation or a deadline ends the progressive loop and the best
// estimate so far is returned (never an error), keeping its a-posteriori
// guarantee — a deadline is a data-independent stopping rule, so unlike
// spec-triggered early stopping it does not void the CI's coverage.
func (e *OLAEngine) ExecuteProgressive(ctx context.Context, stmt *sqlparse.SelectStmt, spec ErrorSpec,
	observe func(Progress) bool) (*Result, error) {
	return e.run(ctx, stmt, spec, e.Config, observe)
}

// run is the engines' shared entry and exit around the chunk loop, under
// cfg: the engine's own configuration, or a contract stage's cut of it.
func (e *OLAEngine) run(ctx context.Context, stmt *sqlparse.SelectStmt, spec ErrorSpec, cfg OLAConfig,
	observe func(Progress) bool) (*Result, error) {
	return engineRun(ctx, "ola", nil, spec, func(ctx context.Context, spec ErrorSpec) (*Result, error) {
		if ok, reason := e.supported(stmt); !ok {
			return e.exactEngine().fallBack(ctx, stmt, spec, "ola: fell back to exact: "+reason)
		}
		return e.progress(ctx, stmt, spec, cfg, observe)
	})
}

// prefixDraw is OLA's draw: the statement's plan with the aggregate swapped
// for the moments the prefix estimator needs, and the FROM scan — whose row
// is the sampling unit — ready to be ranged over the row permutation.
type prefixDraw struct {
	// proj is the statement's select list, each item a bare reference into
	// (group columns, aggregate slots); aggs are the slots.
	proj *plan.Project
	aggs []plan.AggSpec
	// moments computes, per slot, COUNT as itself and SUM/AVG as SUM(arg)
	// plus a hidden SUM(arg·arg); first[slot] is its first moment column.
	moments *plan.Aggregate
	first   []int
	scan    *plan.Scan
	order   []int32
	n       int // rows in the FROM table
}

// draw plans stmt for prefix reads, under the "setup" span.
func (e *OLAEngine) draw(ctx context.Context, stmt *sqlparse.SelectStmt, seed int64) (*prefixDraw, error) {
	sp, _ := trace.StartSpan(ctx, "setup")
	defer sp.End()
	root, err := plan.Build(stmt, e.Catalog)
	if err != nil {
		return nil, err
	}
	scans := plan.Scans(root)
	for _, s := range scans {
		// The permutation is the draw, so TABLESAMPLE clauses are dropped.
		// Stream over snapshots so the permutation and the reads agree on
		// the row count, and every chunk joins the same dimension rows,
		// even while writers keep appending.
		s.Sample, s.Table = nil, s.Table.Snapshot()
	}
	agg := plan.FindAggregate(root)
	d := &prefixDraw{proj: root.(*plan.Project), aggs: agg.Aggs, first: make([]int, len(agg.Aggs)),
		scan: scans[0], n: scans[0].Table.NumRows()}
	var moments []plan.AggSpec
	for i, a := range agg.Aggs {
		d.first[i] = len(moments)
		if a.Func == sqlparse.AggCount {
			moments = append(moments, a) // z is 0 or 1, so Σz² = Σz
			continue
		}
		// Squares are taken in floating point: an integer product could
		// overflow, and only float arithmetic compiles to a scan kernel.
		sq := a.Arg
		if sq.Type() != storage.TypeFloat64 {
			sq = &expr.Binary{Op: expr.OpMul, L: sq, R: &expr.Lit{Val: storage.Float64(1)}}
		}
		moments = append(moments,
			plan.AggSpec{Func: sqlparse.AggSum, Arg: a.Arg, Name: a.Name},
			plan.AggSpec{Func: sqlparse.AggSum, Arg: &expr.Binary{Op: expr.OpMul, L: sq, R: a.Arg}, Name: a.Name + "_sq"})
	}
	d.moments = plan.NewAggregate(agg.Child, agg.GroupBy, agg.GroupNames, moments)
	d.order = e.order.of(seed, d.n)
	sp.SetAttrInt("rows", int64(d.n))
	return d, nil
}

// progress is the chunk loop: each chunk is the shared aggregate path run
// over the next range of the permutation, the running state is the merge
// of the chunk partials in chunk order, and a checkpoint finalizes it.
func (e *OLAEngine) progress(ctx context.Context, stmt *sqlparse.SelectStmt, spec ErrorSpec, cfg OLAConfig,
	observe func(Progress) bool) (*Result, error) {
	d, err := e.draw(ctx, stmt, cfg.Seed)
	if err != nil {
		return nil, err
	}
	limit := min(int(math.Ceil(cfg.MaxFraction*float64(d.n))), d.n)
	workers := exec.ResolveWorkers(ctx)

	// Chunk/checkpoint spans accumulate across loop iterations; a span per
	// chunk, let alone per chunk operator, would bloat the tree at default
	// chunk sizes. A chunk is bounded work and runs to completion: the
	// deadline is observed between chunks, never inside one.
	chunkSp, _ := trace.StartOp(ctx, "chunks")
	ckptSp, _ := trace.StartOp(ctx, "checkpoints")
	chunkCtx := trace.Detach(context.WithoutCancel(ctx))

	// The estimate over no rows stands when there is nothing to read.
	running := new(exec.AggPartial)
	final, err := d.checkpoint(chunkCtx, running, 1, spec)
	if err != nil {
		return nil, err
	}
	dg := &final.Diagnostics
	read := 0
	for read < limit {
		// Always complete at least one chunk so a too-tight deadline still
		// yields an estimate; after that, the deadline wins between chunks.
		if read > 0 && ctx.Err() != nil {
			dg.Partial = true
			dg.Messages = append(dg.Messages, fmt.Sprintf(
				"ola: deadline/cancellation after %d of %d rows; returning best progressive estimate", read, d.n))
			break
		}
		chunkEnd := min(read+cfg.ChunkRows, limit)
		t0 := time.Now()
		part, cerr := func() (_ *exec.AggPartial, cerr error) {
			defer func() {
				if r := recover(); r != nil {
					cerr = fault.AsError(r)
				}
			}()
			if err := injectOLAChunk.Inject(); err != nil {
				return nil, err
			}
			d.scan.Range = &plan.RowRange{Order: d.order, Lo: read, Hi: chunkEnd}
			return exec.RunAggPartialContext(chunkCtx, d.moments, workers)
		}()
		if cerr != nil {
			if read == 0 {
				return nil, cerr
			}
			// A mid-stream chunk fault costs only that chunk: a partial is
			// merged only once its whole chunk succeeded, so the accumulated
			// prefix is an intact SRS and its a-posteriori CI still
			// describes the estimate we return.
			dg.Partial, dg.Degraded = true, true
			dg.Messages = append(dg.Messages, fmt.Sprintf(
				"ola: chunk fault after %d of %d rows (%v); returning best progressive estimate", read, d.n, cerr))
			break
		}
		running = exec.MergeAggPartials([]*exec.AggPartial{running, part})
		chunkSp.AddTime(time.Since(t0))
		chunkSp.AddRows(int64(chunkEnd - read))
		read = chunkEnd
		t0 = time.Now()
		if final, err = d.checkpoint(chunkCtx, running, read, spec); err != nil {
			return nil, err
		}
		dg = &final.Diagnostics
		ckptSp.AddTime(time.Since(t0))
		p := Progress{RowsRead: read, Fraction: float64(read) / float64(d.n), Result: final}
		if (observe != nil && !observe(p)) || (cfg.StopWhenSpecMet && dg.SpecSatisfied && read < limit) {
			final.Guarantee = GuaranteeNone
			dg.Messages = append(dg.Messages,
				"ola: stopped on an interim CI; the stopped-at interval does not retain its nominal coverage (peeking)")
			break
		}
	}
	ckptSp.SetAttrInt("checkpoints", int64((read+cfg.ChunkRows-1)/cfg.ChunkRows))
	fraction := float64(read) / math.Max(float64(d.n), 1)
	esp := trace.SpanFromContext(ctx)
	esp.SetAttrInt("workers", int64(workers))
	esp.SetAttrInt("rows_read", int64(read))
	esp.SetAttrFloat("fraction", fraction)
	stampRun(dg, e.Catalog, stmt.From.Name, fraction, workers)
	dg.Counters = exec.Counters{RowsScanned: int64(read), RowsEmitted: int64(read), Passes: 1}
	return final, nil
}

// checkpoint finalizes the running partial and turns each group's moments
// into the statement's estimates: the first k rows of the permutation are
// a simple random sample without replacement of the table's n, a row
// contributing its aggregate argument when it is in the group and 0
// otherwise.
func (d *prefixDraw) checkpoint(ctx context.Context, running *exec.AggPartial, k int, spec ErrorSpec) (*Result, error) {
	fin, err := exec.FinalizeAggPartial(ctx, d.moments, running)
	if err != nil {
		return nil, err
	}
	conf := confidencePerEstimate(spec, len(d.aggs), fin.NumRows())
	out := &Result{Columns: append([]string(nil), d.proj.Names...),
		Technique: TechniqueOLA, Guarantee: GuaranteeAPosteriori, Spec: spec}
	groupCols := len(d.moments.GroupBy)
	specOK := fin.NumRows() > 0
	for i, frow := range fin.Rows {
		row := make([]storage.Value, len(d.proj.Exprs))
		items := make([]ItemResult, len(d.proj.Exprs))
		for j, e := range d.proj.Exprs {
			col := e.(*expr.ColRef).Index
			if col < groupCols {
				row[j] = frow[col]
				items[j] = ItemResult{Name: out.Columns[j], Value: row[j]}
				continue
			}
			fn := d.aggs[col-groupCols].Func
			m := fin.Details[i].Aggs[d.first[col-groupCols]:]
			sum, cnt := m[0].Estimate, m[0].N
			var est, variance float64
			val := storage.NullValue(storage.TypeFloat64) // SUM and AVG over no value
			switch fn {
			case sqlparse.AggCount:
				est, variance = stats.SRSTotal(sum, sum, k, d.n)
				val = storage.Int64(int64(est + 0.5))
			case sqlparse.AggSum:
				est, variance = stats.SRSTotal(sum, m[1].Estimate, k, d.n)
			default:
				est, variance = stats.SRSMean(sum, m[1].Estimate, cnt, k, d.n)
			}
			if fn != sqlparse.AggCount && cnt > 0 {
				val = storage.Float64(est)
			}
			iv := stats.CLTInterval(est, variance, math.Max(cnt, 2), conf)
			row[j] = val
			items[j] = ItemResult{Name: out.Columns[j], Value: val, IsAggregate: true,
				HasCI: true, CI: iv, RelHalfWidth: iv.RelHalfWidth(est),
				Variance: variance, SampleN: math.Max(cnt, 2)}
			if items[j].RelHalfWidth > spec.RelError {
				specOK = false
			}
		}
		out.Rows = append(out.Rows, row)
		out.Items = append(out.Items, items)
		if fin.Details[i].GroupN == 0 && k < d.n {
			// The global aggregate's one row over no qualifying input: zero
			// observations are no estimate, whatever width the formulas give.
			specOK = false
			out.Guarantee = GuaranteeNone
			out.Diagnostics.Messages = append(out.Diagnostics.Messages, fmt.Sprintf(
				"ola: no qualifying row in the %d of %d rows read; the estimate carries no error statement", k, d.n))
		}
	}
	out.Diagnostics.SpecSatisfied = specOK
	return out, nil
}

// uniqueBuildKey reports whether some equality conjunct of a join's ON
// clause pins one dimension column that is unique in the dimension, so a
// fact row joins at most one dimension row whatever else the clause says.
func uniqueBuildKey(on expr.Expr, dim *storage.Table) bool {
	for _, c := range plan.SplitAnd(on) {
		eq, _ := c.(*expr.Binary)
		if eq == nil || eq.Op != expr.OpEq {
			continue
		}
		l, _ := eq.L.(*expr.ColRef)
		r, _ := eq.R.(*expr.ColRef)
		if l == nil || r == nil {
			continue
		}
		if dim.Schema().ColumnIndex(l.Name) < 0 {
			l, r = r, l
		}
		if dim.Schema().ColumnIndex(r.Name) >= 0 {
			continue // both sides are the dimension's: a filter, not a key
		}
		if st, err := dim.Stats(l.Name); err == nil && st.DistinctCount+st.NullCount == dim.NumRows() {
			return true
		}
	}
	return false
}

// supported checks the OLA engine's query class.
func (e *OLAEngine) supported(stmt *sqlparse.SelectStmt) (bool, string) {
	// The statement-shape checks are cheap; the join checks below scan each
	// dimension, so a statement refused on shape never pays for them.
	if ok, reason := supportedForSampling(stmt); !ok {
		return false, reason
	}
	for _, a := range stmt.Aggregates() {
		if !a.Func.Linear() {
			return false, fmt.Sprintf("aggregate %s is not incrementally estimable by OLA", a)
		}
	}
	if stmt.Having != nil || len(stmt.OrderBy) > 0 || stmt.Limit >= 0 {
		return false, "HAVING/ORDER BY/LIMIT not supported by OLA"
	}
	for _, it := range stmt.Items {
		switch it.Expr.(type) {
		case *sqlparse.AggExpr, *expr.ColRef: // a column outside GROUP BY fails to plan
		default:
			return false, "OLA supports only bare aggregates and group columns as select items"
		}
	}
	for _, jc := range stmt.Joins {
		dim, err := e.Catalog.Table(jc.Table.Name)
		if err != nil {
			return false, err.Error()
		}
		if dim = dim.Snapshot(); dim.NumRows() > e.Config.MaxBuildRows {
			return false, fmt.Sprintf("join table %s too large to build (%d rows)",
				jc.Table.Name, dim.NumRows())
		}
		// The prefix estimator treats each joined row as one fact row's
		// contribution, which holds exactly when a fact row matches at
		// most one dimension row.
		if !uniqueBuildKey(jc.On, dim) {
			return false, fmt.Sprintf("join with %s is not on a unique key of %s", jc.Table.Name, jc.Table.Name)
		}
	}
	return true, ""
}
