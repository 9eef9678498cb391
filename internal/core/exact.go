package core

import (
	"context"

	"repro/internal/fault"
	"repro/internal/shard"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// injectExact fires at exact-engine entry.
var injectExact = fault.NewPoint("core.exact", "exact engine entry")

// ExactEngine executes queries exactly; it is the reference every
// approximate engine is measured against.
type ExactEngine struct {
	Catalog *storage.Catalog
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
// stripped: exact means exact. The draw is the base table, whole.
func (e *ExactEngine) Execute(ctx context.Context, stmt *sqlparse.SelectStmt, spec ErrorSpec) (*Result, error) {
	return engineRun(ctx, "exact", injectExact, spec, func(ctx context.Context, spec ErrorSpec) (*Result, error) {
		return execute(ctx, e.Catalog, stmt, spec, draw{
			tech: TechniqueExact, guarantee: GuaranteeExact, strip: true,
			group: shardGroupFor(e.Shards, stmt)})
	})
}

// ExecuteAsWritten runs a statement honoring its TABLESAMPLE clauses
// verbatim: the manual path for users who place samplers themselves. The
// result carries a-posteriori intervals when any sampler was present and
// is exact otherwise. It never scatters: a user-placed sampler means the
// base table.
func (e *ExactEngine) ExecuteAsWritten(ctx context.Context, stmt *sqlparse.SelectStmt, spec ErrorSpec) (*Result, error) {
	return engineRun(ctx, "as-written", nil, spec, func(ctx context.Context, spec ErrorSpec) (*Result, error) {
		return execute(ctx, e.Catalog, stmt, spec, draw{
			tech: TechniqueOnline, guarantee: GuaranteeAPosteriori})
	})
}

// fallBack answers the statement exactly on behalf of an approximate
// engine that declined to sample it, flagging the substitution and
// noting why.
func (e *ExactEngine) fallBack(ctx context.Context, stmt *sqlparse.SelectStmt, spec ErrorSpec, notes ...string) (*Result, error) {
	res, err := e.Execute(ctx, stmt, spec)
	if err != nil {
		return nil, err
	}
	res.Diagnostics.FellBackToExact = true
	res.Diagnostics.Messages = append(res.Diagnostics.Messages, notes...)
	return res, nil
}
