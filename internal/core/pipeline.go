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

// draw is a technique's whole say in one execution: where the rows come
// from and how they are thinned. Everything after it — plan, scatter or
// run, estimate, stamp, fall back — is execute's and the same for every
// technique. A contract stage is its engine's draw at another rate and
// seed.
type draw struct {
	tech Technique
	// guarantee is the label when nothing degrades.
	guarantee Guarantee
	// notes are the engine's account of its decision, stamped first in
	// Diagnostics.Messages.
	notes []string

	// standIn, when set, is the stored offline sample that takes a base
	// table's place.
	standIn *standIn
	// plan, when set, is the statement's plan with the draw's samplers
	// already on its scans — the online engine plans in order to decide,
	// and a contract stage sets their rate and seed. Otherwise execute
	// plans against the catalog with standIn in place, keeping the
	// statement's own TABLESAMPLE clauses unless strip.
	plan  plan.Node
	strip bool

	// group, when set, is scattered over if the plan is gatherable; each
	// shard applies the plan's sampler under its own derived seed.
	// shardRates overrides the rate per shard (a contract stage two's
	// Neyman allocation) and moments, when non-nil, receives per-shard
	// slot moments (a contract pilot).
	group      *shard.Group
	shardRates []float64
	moments    *[][]exec.SlotMoment

	// onMiss, when set, re-runs exactly an answer whose CIs miss the spec.
	onMiss *ExactEngine
}

// standIn is a materialized sample answering in place of the base table
// source, with the watermark of the base table it was built from.
type standIn struct {
	source       string
	data         *storage.Table
	name         string
	buildVersion uint64
	buildRows    int
	// stale reports that the base table has moved since the build.
	stale bool
}

// engineRun is every engine's entry and exit: panic containment and error
// classification, the engine's fault point, the "engine <name>" span, the
// spec default and the latency stamp.
func engineRun(ctx context.Context, name string, inject *fault.Point, spec ErrorSpec,
	body func(context.Context, ErrorSpec) (*Result, error)) (_ *Result, err error) {

	defer contain(&err)
	if inject != nil {
		if err := inject.Inject(); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	sp, ctx := trace.StartSpan(ctx, "engine "+name)
	defer sp.End()
	if !spec.Valid() {
		spec = DefaultErrorSpec
	}
	res, err := body(ctx, spec)
	if err != nil {
		return nil, err
	}
	res.Diagnostics.Latency = time.Since(start)
	return res, nil
}

// buildPlan is plan.Build under the "plan" span.
func buildPlan(ctx context.Context, stmt *sqlparse.SelectStmt, cat *storage.Catalog) (plan.Node, error) {
	sp, _ := trace.StartSpan(ctx, "plan")
	defer sp.End()
	return plan.Build(stmt, cat)
}

// execute is the one path from a draw to an annotated answer: plan, scatter
// over the shard group or run locally, estimate, stamp the diagnostics and,
// where the draw asks for it, fall back to an exact run when the CIs miss
// the spec.
func execute(ctx context.Context, cat *storage.Catalog, stmt *sqlparse.SelectStmt,
	spec ErrorSpec, d draw) (*Result, error) {

	p, in := d.plan, d.standIn
	if p == nil {
		pcat := cat
		if in != nil {
			pcat = cat.Overlay(in.source, in.data)
		}
		var err error
		if p, err = buildPlan(ctx, stmt, pcat); err != nil {
			return nil, err
		}
		if d.strip {
			plan.ClearSamplers(p)
		}
	}
	workers := exec.ResolveWorkers(ctx)
	trace.SpanFromContext(ctx).SetAttrInt("workers", int64(workers))

	var (
		raw *exec.Result
		sr  *shardRun // nil for a local run
		err error
	)
	smp, pop := firstSampler(p), sampledRows(p)
	if d.group != nil {
		if sr, err = runSharded(ctx, d.group, stmt, p, smp, workers, d.shardRates, d.moments); err != nil {
			return nil, err
		}
		raw, pop = sr.raw, sr.sampledPop
	} else if raw, err = exec.RunParallelContext(ctx, p, workers); err != nil {
		return nil, err
	}

	asp, _ := trace.StartSpan(ctx, "estimate")
	tech, guarantee := d.tech, d.guarantee
	if smp == nil && in == nil {
		// Nothing thinned the rows (an as-written statement without a
		// TABLESAMPLE clause): the answer is exact whatever the draw hoped.
		tech, guarantee = TechniqueExact, GuaranteeExact
	}
	if sr != nil && sr.degraded && !sr.summary.Extrapolated {
		// The survivors answer for a population no interval can be
		// stretched to cover — an exact run has no variance to widen, a
		// lost range shard is a systematic gap: no defensible statement.
		guarantee = GuaranteeNone
	}
	out := annotate(stmt, raw, spec, tech, guarantee)
	asp.End()

	dg := &out.Diagnostics
	dg.Messages = append(dg.Messages, d.notes...)
	table := stmt.From.Name
	if in != nil {
		table = in.source
	}
	stampRun(dg, cat, table, sampleFraction(raw.Counters, pop), workers)
	if in != nil {
		// The sample may predate this execution: lineage carries its build
		// watermark, so audits can tell "sample predates these rows" from
		// "estimator bad".
		dg.Lineage.SampleName, dg.Lineage.BuildVersion, dg.Lineage.BuildRows = in.name, in.buildVersion, in.buildRows
		if dg.Lineage.TableRows > 0 {
			dg.SampleFraction = float64(in.data.NumRows()) / float64(dg.Lineage.TableRows)
		}
		dg.Stale = in.stale
	}
	if sr != nil {
		dg.Messages = append(dg.Messages, sr.messages...)
		dg.Degraded, dg.Shards = sr.degraded, sr.summary
	}
	trace.SpanFromContext(ctx).SetAttrFloat("sample_fraction", dg.SampleFraction)

	if d.onMiss != nil && !dg.SpecSatisfied && !dg.Degraded {
		exact, err := d.onMiss.fallBack(ctx, stmt, spec,
			"online: sampled CIs missed the spec; re-ran exactly (second pass)")
		if err != nil {
			return nil, err
		}
		exact.Diagnostics.Counters.Add(dg.Counters)
		return exact, nil
	}
	return out, nil
}

// stampRun records what every scanning execution reports about itself: the
// realized sampling fraction, the resolved worker count and a query-time
// lineage of the table it read.
func stampRun(d *Diagnostics, cat *storage.Catalog, table string, fraction float64, workers int) {
	d.SampleFraction, d.Workers = fraction, workers
	d.Lineage = queryTimeLineage(cat, table)
}
