package core

import (
	"context"
	"fmt"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/shard"
	"repro/internal/sqlparse"
)

// shardGroupFor returns the shard group the statement can scatter over,
// or nil to run unsharded. Only single-table aggregate queries scatter;
// everything else runs against the base table, which remains the ingest
// surface and always holds every row.
func shardGroupFor(m *shard.Map, stmt *sqlparse.SelectStmt) *shard.Group {
	if m == nil || len(stmt.Joins) > 0 || !stmt.HasAggregates() {
		return nil
	}
	return m.Get(stmt.From.Name)
}

// shardRun is the outcome of one scatter-gather execution, before engine
// annotation.
type shardRun struct {
	raw     *exec.Result
	summary *ShardExecSummary
	// messages are engine notes about degradation and extrapolation.
	messages []string
	degraded bool
	// sampledPop is the population actually subject to sampling (covered
	// rows), the denominator for SampleFraction.
	sampledPop int64
}

// runSharded scatters the statement over the group and finalizes the
// merged partial under the already-built base plan p, so the gather-side
// operator chain (HAVING/projection/sort/limit) is byte-for-byte the one
// an unsharded run would execute. smp, when non-nil, is the sampler spec
// each shard applies with an independently derived seed; nil runs exact.
// rates, when set, overrides the sampling rate per shard, and moments,
// when non-nil, receives per-shard slot moments (contract stages).
//
// Lost shards degrade the result instead of failing it. When the group is
// hash-partitioned and sampling is in effect, the survivors are an
// unbiased window on the table, so totals are extrapolated by
// total/covered population with variances scaled by its square — the CI
// stays honest about the full-table estimate. Range-sharded losses are
// systematic gaps and exact runs carry no variance to widen, so neither
// extrapolates; the caller downgrades the guarantee instead.
func runSharded(ctx context.Context, g *shard.Group, stmt *sqlparse.SelectStmt, p plan.Node,
	smp *sample.Spec, workers int, rates []float64, moments *[][]exec.SlotMoment) (*shardRun, error) {

	sres, err := g.Scatter(ctx, stmt, shard.ExecOptions{
		Workers:        workers,
		Sample:         smp,
		AllowDegraded:  true,
		ShardRates:     rates,
		CollectMoments: moments != nil,
	})
	if err != nil {
		return nil, err
	}
	if moments != nil {
		*moments = sres.ShardMoments
	}

	sum := &ShardExecSummary{
		Table:    g.Name(),
		Count:    g.NumShards(),
		Key:      g.Key().String(),
		Degraded: sres.Failed,
		Pruned:   sres.Pruned,
	}
	for _, o := range sres.Outcomes {
		sum.RowsPerShard = append(sum.RowsPerShard, o.Rows)
	}
	sum.CoverageFraction = 1
	if sres.TotalRows > 0 {
		sum.CoverageFraction = float64(sres.CoveredRows) / float64(sres.TotalRows)
	}

	run := &shardRun{summary: sum, degraded: sres.Degraded()}
	if smp != nil {
		run.sampledPop = int64(sres.CoveredRows)
	}
	if sres.Degraded() {
		run.messages = append(run.messages, fmt.Sprintf(
			"shard: %d/%d shards unavailable %v; answered from survivors covering %.1f%% of rows",
			len(sres.Failed), g.NumShards(), sres.Failed, 100*sum.CoverageFraction))
		switch {
		case smp != nil && g.Key().Kind == shard.KeyHash &&
			sres.CoveredRows > 0 && sres.CoveredRows < sres.TotalRows:
			r := float64(sres.TotalRows) / float64(sres.CoveredRows)
			sres.Partial.ScaleForCoverage(r)
			sum.Extrapolated = true
			run.messages = append(run.messages, fmt.Sprintf(
				"shard: extrapolated totals ×%.4g — hash shards are an unbiased window, variance scaled ×%.4g",
				r, r*r))
		case smp == nil:
			run.messages = append(run.messages,
				"shard: no extrapolation — exact partials carry no variance to widen; totals cover surviving shards only")
		default:
			run.messages = append(run.messages,
				"shard: no extrapolation — lost range shards are a systematic gap; totals cover surviving shards only")
		}
	}

	raw, err := exec.FinalizeAggPartial(ctx, p, sres.Partial)
	if err != nil {
		return nil, err
	}
	run.raw = raw
	return run, nil
}
