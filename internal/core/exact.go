package core

import (
	"context"
	"time"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/trace"
)

// injectExact fires at exact-engine entry.
var injectExact = fault.NewPoint("core.exact", "exact engine entry")

// ExactEngine executes queries exactly; it is the reference every
// approximate engine is measured against.
type ExactEngine struct {
	Catalog *storage.Catalog
	// Workers is the morsel-parallel worker count; 0 defers to a context
	// override or runtime.GOMAXPROCS.
	Workers int
	// Shards, when set, routes single-table aggregate queries over sharded
	// tables through the scatter-gather executor. A nil map (or unsharded
	// table) leaves execution exactly as before.
	Shards *shard.Map
}

// NewExactEngine builds an exact engine over the catalog.
func NewExactEngine(cat *storage.Catalog) *ExactEngine {
	return &ExactEngine{Catalog: cat}
}

// Name implements Engine.
func (e *ExactEngine) Name() Technique { return TechniqueExact }

// Execute implements Engine. Any TABLESAMPLE clauses in the statement are
// stripped: exact means exact.
func (e *ExactEngine) Execute(stmt *sqlparse.SelectStmt, spec ErrorSpec) (*Result, error) {
	return e.ExecuteContext(context.Background(), stmt, spec)
}

// ExecuteContext is Execute under a context: scans observe cancellation
// and deadlines, aborting with ctx.Err().
func (e *ExactEngine) ExecuteContext(ctx context.Context, stmt *sqlparse.SelectStmt, spec ErrorSpec) (_ *Result, err error) {
	defer contain(&err)
	if err := injectExact.Inject(); err != nil {
		return nil, err
	}
	start := time.Now()
	esp, ctx := trace.StartSpan(ctx, "engine exact")
	defer esp.End()
	psp, _ := trace.StartSpan(ctx, "plan")
	p, err := plan.Build(stmt, e.Catalog)
	psp.End()
	if err != nil {
		return nil, err
	}
	plan.ClearSamplers(p)
	workers := resolveWorkers(ctx, p, e.Workers)
	esp.SetAttrInt("workers", int64(workers))

	if g := shardGroupFor(e.Shards, stmt); g != nil && exec.Gatherable(p) {
		run, err := runSharded(ctx, g, stmt, p, nil, workers)
		if err != nil {
			return nil, err
		}
		asp, _ := trace.StartSpan(ctx, "estimate")
		guarantee := GuaranteeExact
		if run.degraded {
			// A degraded exact run is missing rows with no variance model
			// to account for them: no defensible error statement exists.
			guarantee = GuaranteeNone
		}
		out := annotate(stmt, run.raw, spec, TechniqueExact, guarantee)
		asp.End()
		out.Diagnostics.Latency = time.Since(start)
		out.Diagnostics.SampleFraction = 1
		out.Diagnostics.Workers = workers
		out.Diagnostics.Degraded = run.degraded
		out.Diagnostics.Shards = run.summary
		out.Diagnostics.Messages = append(out.Diagnostics.Messages, run.messages...)
		stampLineage(&out.Diagnostics, e.Catalog, stmt.From.Name)
		return out, nil
	}

	res, err := exec.RunParallelContext(ctx, p, workers)
	if err != nil {
		return nil, err
	}
	asp, _ := trace.StartSpan(ctx, "estimate")
	out := annotate(stmt, res, spec, TechniqueExact, GuaranteeExact)
	asp.End()
	out.Diagnostics.Latency = time.Since(start)
	out.Diagnostics.SampleFraction = 1
	out.Diagnostics.Workers = workers
	stampLineage(&out.Diagnostics, e.Catalog, stmt.From.Name)
	return out, nil
}

// fallBack answers the statement exactly on behalf of an approximate
// engine that declined to sample it, flagging the substitution and
// noting why.
func (e *ExactEngine) fallBack(ctx context.Context, stmt *sqlparse.SelectStmt, spec ErrorSpec, notes ...string) (*Result, error) {
	res, err := e.ExecuteContext(ctx, stmt, spec)
	if err != nil {
		return nil, err
	}
	res.Diagnostics.FellBackToExact = true
	res.Diagnostics.Messages = append(res.Diagnostics.Messages, notes...)
	return res, nil
}

// ExecuteAsWritten runs a statement honoring its TABLESAMPLE clauses
// verbatim: the manual path for users who place samplers themselves. The
// result carries a-posteriori intervals when any sampler was present.
func ExecuteAsWritten(cat *storage.Catalog, stmt *sqlparse.SelectStmt, spec ErrorSpec) (*Result, error) {
	return ExecuteAsWrittenContext(context.Background(), cat, stmt, spec)
}

// ExecuteAsWrittenContext is ExecuteAsWritten under a context.
func ExecuteAsWrittenContext(ctx context.Context, cat *storage.Catalog, stmt *sqlparse.SelectStmt, spec ErrorSpec) (_ *Result, err error) {
	defer contain(&err)
	start := time.Now()
	esp, ctx := trace.StartSpan(ctx, "engine as-written")
	defer esp.End()
	psp, _ := trace.StartSpan(ctx, "plan")
	p, err := plan.Build(stmt, cat)
	psp.End()
	if err != nil {
		return nil, err
	}
	sampled := firstSampler(p) != nil
	workers := resolveWorkers(ctx, p, 0)
	res, err := exec.RunParallelContext(ctx, p, workers)
	if err != nil {
		return nil, err
	}
	tech, g := TechniqueExact, GuaranteeExact
	if sampled {
		tech, g = TechniqueOnline, GuaranteeAPosteriori
	}
	out := annotate(stmt, res, spec, tech, g)
	out.Diagnostics.Latency = time.Since(start)
	out.Diagnostics.Workers = workers
	if sampled {
		out.Diagnostics.SampleFraction = sampleFraction(res.Counters, sampledRows(p))
	} else {
		out.Diagnostics.SampleFraction = 1
	}
	stampLineage(&out.Diagnostics, cat, stmt.From.Name)
	return out, nil
}
