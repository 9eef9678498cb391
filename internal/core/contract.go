package core

// A-priori error contracts: two-stage pilot-sized execution.
//
// `WITH ERROR e% CONFIDENCE c%` becomes a promise instead of a wish: a
// cheap pilot measures each aggregate's variance, internal/contract sizes
// the stage-two sampling fraction that makes the CLT half-width land at
// or below the target (chi-square-inflated pilot variance, Bonferroni
// across estimates, finite-population correction folded into the rate
// transform), and stage two runs at that fraction. The sized fraction is
// fixed by stage-one data alone — a data-independent stopping rule in
// Stein's two-stage sense — so stage-two intervals keep their nominal
// coverage, which is what lets the engines stamp GuaranteeAPriori on the
// answer. When sizing proves the target unreachable inside the admission
// budget, the engine refuses honestly: it degrades to a best-effort
// a-posteriori CI at the budget fraction and flags the diagnostics with
// contract.InfeasibleFlag instead of certifying a guess.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/contract"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/shard"
	"repro/internal/sqlparse"
	"repro/internal/trace"
)

// ContractConfig tunes two-stage contract execution.
type ContractConfig struct {
	// PilotFraction is the stage-one sampling fraction (default 0.05).
	PilotFraction float64
	// MinPilotRows floors the pilot at an absolute row count so variance
	// estimates on small tables are not built from a handful of rows
	// (default 200).
	MinPilotRows int
	// BudgetFraction is the admission budget: the largest stage-two
	// sampling fraction the engine may spend. A contract whose sized
	// fraction exceeds it is refused as infeasible (default 1).
	BudgetFraction float64
	// VarianceConfidence is the one-sided chi-square level of the pilot
	// variance upper bound used for sizing (default 0.9).
	VarianceConfidence float64
}

// DefaultContractConfig returns the engine defaults: a 5% pilot floored
// at 200 rows, the whole table as budget, 90% variance confidence.
func DefaultContractConfig() ContractConfig { return ContractConfig{}.withDefaults() }

func (c ContractConfig) withDefaults() ContractConfig {
	if c.PilotFraction <= 0 || c.PilotFraction > 1 {
		c.PilotFraction = 0.05
	}
	if c.MinPilotRows <= 0 {
		c.MinPilotRows = 200
	}
	if c.BudgetFraction <= 0 || c.BudgetFraction > 1 {
		c.BudgetFraction = 1
	}
	if c.VarianceConfidence <= 0 || c.VarianceConfidence >= 1 {
		c.VarianceConfidence = 0.9
	}
	return c
}

// pilotRate resolves the stage-one fraction for a table of the given
// size: the configured fraction, raised to cover MinPilotRows, capped
// at 1.
func (c ContractConfig) pilotRate(rows int64) float64 {
	pr := c.PilotFraction
	if rows > 0 {
		if min := float64(c.MinPilotRows) / float64(rows); min > pr {
			pr = min
		}
	}
	if pr > 1 {
		pr = 1
	}
	return pr
}

// contractStageSeed derives the stage-two sampler seed from the engine
// seed (splitmix64 finalizer), so the two stages make independent
// inclusion decisions while the whole run stays a pure function of the
// engine seed.
func contractStageSeed(seed int64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// contractEstimates extracts the pilot moments contract sizing needs from
// an annotated result: one Estimate per aggregate item per group. An
// aggregate item without CLT moments (PERCENTILE's distribution bound,
// composite aggregate arithmetic) cannot be sized; its name is returned
// so the caller can refuse with a concrete reason.
func contractEstimates(res *Result) ([]contract.Estimate, string) {
	var ests []contract.Estimate
	for i := range res.Items {
		for _, it := range res.Items[i] {
			if !it.IsAggregate {
				continue
			}
			if it.SampleN <= 0 {
				return nil, it.Name
			}
			ests = append(ests, contract.Estimate{
				Value: it.Value.AsFloat(), Variance: it.Variance, N: it.SampleN,
			})
		}
	}
	return ests, ""
}

// newContractSummary starts the diagnostics block every contract path
// fills in.
func newContractSummary(spec ErrorSpec, cfg ContractConfig) *contract.Summary {
	return &contract.Summary{
		TargetRelError: spec.RelError,
		Confidence:     spec.Confidence,
		BudgetFraction: cfg.BudgetFraction,
	}
}

// sizeContract runs the sizing step: a pilot that cannot certify the
// population (refusal) or an aggregate without CLT moments (badName)
// refuses with that reason and spends the budget as best effort,
// otherwise internal/contract computes the binding stage-two fraction
// under the budget. The returned rate is floored at the pilot fraction
// (stage two is never smaller than the pilot) and capped at 1.
func sizeContract(ests []contract.Estimate, badName, refusal string, pilotRate float64,
	spec ErrorSpec, cfg ContractConfig) (contract.Sizing, float64) {

	if refusal == "" && badName != "" {
		refusal = fmt.Sprintf("aggregate %s has no CLT moments to size from", badName)
	}
	var sz contract.Sizing
	if refusal != "" {
		sz = contract.Sizing{
			Rate:         cfg.BudgetFraction,
			RequiredRate: cfg.BudgetFraction,
			Reason:       refusal,
		}
	} else {
		sz = contract.Size(ests, pilotRate, spec.RelError, spec.Confidence, contract.Options{
			BudgetRate:         cfg.BudgetFraction,
			VarianceConfidence: cfg.VarianceConfidence,
		})
	}
	return sz, min(max(sz.Rate, pilotRate), 1)
}

// stampInfeasible attaches the refusal message operators and tests grep
// for.
func stampInfeasible(d *Diagnostics, sum *contract.Summary) {
	if sum.Infeasible {
		d.Messages = append(d.Messages, fmt.Sprintf(
			"contract: %s — %s; returning best-effort a-posteriori CI at fraction %.4g",
			contract.InfeasibleFlag, sum.Reason, sum.FinalFraction))
	}
}

// exactContract answers the statement exactly and stamps a trivially-met
// contract: an exact answer has zero error, so any valid contract holds.
// Used when the query class cannot be sampled at all — refusing to
// approximate is not refusing to answer.
func exactContract(ctx context.Context, eng *ExactEngine, stmt *sqlparse.SelectStmt,
	spec ErrorSpec, cfg ContractConfig, why string) (*Result, error) {

	sum := newContractSummary(spec, cfg)
	sum.Reason = "answered exactly (" + why + "); the contract holds trivially"
	res, err := eng.fallBack(ctx, stmt, spec, "contract: "+sum.Reason)
	if err != nil {
		return nil, err
	}
	sum.FinalFraction = 1
	sum.FinalRows = res.Diagnostics.Counters.RowsScanned
	sum.Conclude(0, false)
	res.Diagnostics.Contract = sum
	return res, nil
}

// contractPlan is the per-engine half of a two-stage contract run: how to
// execute the statement at a sampling rate. runContract owns the rest.
type contractPlan struct {
	// pilotRate is the stage-one sampling fraction.
	pilotRate float64
	// run executes one stage at rate: stage one when pilot is nil, else
	// stage two at the sized rate with an independent seed, returning the
	// final answer with the pilot's cost folded in, the engine's diagnostics
	// stamped and a best-effort (never a-priori) guarantee.
	run func(ctx context.Context, rate float64, pilot *contractRun) (contractRun, error)
}

// contractRun is what one stage reports.
type contractRun struct {
	res *Result
	// rows and fraction are the sampled rows and the realized sampling
	// fraction (OLA reads whole chunks, so it may exceed the rate asked).
	rows     int64
	fraction float64
	// refusal is why a pilot cannot certify the whole population; stage
	// two then spends the budget as best effort.
	refusal string
	// shard is the scatter outcome and shardFractions stage two's
	// per-shard Neyman allocation (sharded runs only).
	shard          *shardRun
	shardFractions []float64
	// note is appended after the verdict messages.
	note string
}

// runContract is the two-stage driver behind every ExecuteContract:
// validate the contract, let the engine plan (or answer exactly when the
// statement cannot be sampled), pilot, size, run stage two, grade the
// guarantee and conclude the verdict.
func runContract(ctx context.Context, name string, inject *fault.Point, exact *ExactEngine,
	prepare func(context.Context, *sqlparse.SelectStmt, ErrorSpec, ContractConfig) (*contractPlan, string, error),
	stmt *sqlparse.SelectStmt, spec ErrorSpec, cfg ContractConfig) (_ *Result, err error) {

	defer contain(&err)
	if inject != nil {
		if err := inject.Inject(); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	esp, ctx := trace.StartSpan(ctx, "engine "+name+" contract")
	defer esp.End()
	if !spec.Valid() {
		spec = DefaultErrorSpec
	}
	cfg = cfg.withDefaults()
	pl, why, err := prepare(ctx, stmt, spec, cfg)
	if err != nil {
		return nil, err
	}
	if why != "" {
		return exactContract(ctx, exact, stmt, spec, cfg, why)
	}

	psp, pctx := trace.StartSpan(ctx, "contract pilot")
	pilot, err := pl.run(pctx, pl.pilotRate, nil)
	psp.End()
	if err != nil {
		return nil, err
	}
	ests, badName := contractEstimates(pilot.res)
	sz, rate := sizeContract(ests, badName, pilot.refusal, pilot.fraction, spec, cfg)

	sum := newContractSummary(spec, cfg)
	sum.PilotRows = pilot.rows
	sum.PilotFraction = pilot.fraction
	sum.RequiredFraction = sz.RequiredRate
	sum.FinalFraction = rate
	sum.Infeasible = !sz.Feasible
	sum.Reason = sz.Reason

	ssp, sctx := trace.StartSpan(ctx, "contract stage two")
	fin, err := pl.run(sctx, rate, &pilot)
	ssp.End()
	if err != nil {
		return nil, err
	}
	out := fin.res
	// A stage two that lost data — a deadline, a chunk fault, a shard, even
	// one the survivors extrapolate over — can never certify the promise.
	degraded := out.Diagnostics.Degraded || out.Diagnostics.Partial
	if sz.Feasible && !degraded {
		out.Guarantee = GuaranteeAPriori
	}
	sum.FinalRows = fin.rows
	sum.ShardFractions = fin.shardFractions
	sum.Conclude(out.MaxRelHalfWidth(), degraded)
	out.Diagnostics.Contract = sum
	stampInfeasible(&out.Diagnostics, sum)
	if fin.note != "" {
		out.Diagnostics.Messages = append(out.Diagnostics.Messages, fin.note)
	}
	out.Diagnostics.Latency = time.Since(start)
	esp.SetAttrFloat("final_fraction", sum.FinalFraction)
	return out, nil
}

// ExecuteContract runs the statement under an a-priori error contract on
// the online engine: a Bernoulli pilot at the pilot fraction, sizing, and
// a stage-two Bernoulli run at the sized fraction with an independent
// seed. Sharded tables compose the pilot stratum-wise and split the sized
// stage-two budget across shards by Neyman allocation.
func (e *OnlineEngine) ExecuteContract(ctx context.Context, stmt *sqlparse.SelectStmt,
	spec ErrorSpec, cfg ContractConfig) (*Result, error) {
	return runContract(ctx, "online", injectOnline, e.exactEngine(), e.contractPlan, stmt, spec, cfg)
}

func (e *OnlineEngine) contractPlan(ctx context.Context, stmt *sqlparse.SelectStmt,
	spec ErrorSpec, cfg ContractConfig) (*contractPlan, string, error) {

	if ok, reason := supportedForSampling(stmt); !ok {
		return nil, reason, nil
	}
	p, err := plan.Build(stmt, e.Catalog)
	if err != nil {
		return nil, "", err
	}
	planned, notes := e.placeSamplers(stmt, p)
	if !planned {
		return nil, "no table worth sampling", nil
	}
	pop := sampledRows(p)
	workers := resolveWorkers(ctx, p, e.Config.Workers)
	trace.SpanFromContext(ctx).SetAttrInt("workers", int64(workers))
	pl := &contractPlan{pilotRate: cfg.pilotRate(pop)}
	// finish stamps a stage-two answer: engine notes, the pilot's cost.
	finish := func(out *Result, pop int64, pilot *contractRun, msgs []string) {
		d := &out.Diagnostics
		d.Messages = append(append(d.Messages, notes...), msgs...)
		d.SampleFraction = sampleFraction(d.Counters, pop)
		d.Counters.Add(pilot.res.Diagnostics.Counters)
		d.Counters.Passes = 2
		d.Workers = workers
		stampLineage(d, e.Catalog, stmt.From.Name)
	}

	g := shardGroupFor(e.Shards, stmt)
	if g == nil || !exec.Gatherable(p) {
		// One plan, re-run with its samplers turned to the stage's rate and seed.
		pl.run = func(ctx context.Context, rate float64, pilot *contractRun) (contractRun, error) {
			seed := e.Config.Seed
			if pilot != nil {
				seed = contractStageSeed(seed)
			}
			for _, s := range plan.Scans(p) {
				if s.Sample != nil {
					s.Sample.Rate, s.Sample.Seed = rate, seed
				}
			}
			raw, err := exec.RunParallelContext(ctx, p, workers)
			if err != nil {
				return contractRun{}, err
			}
			out := annotate(stmt, raw, spec, TechniqueOnline, GuaranteeAPosteriori)
			if pilot != nil {
				finish(out, pop, pilot, nil)
			}
			return contractRun{res: out, rows: raw.Counters.RowsEmitted, fraction: rate}, nil
		}
		return pl, "", nil
	}

	// The scatter-gather pair: the pilot scatters collecting per-shard slot
	// moments, the composed (merged-in-shard-order) pilot sizes stage two
	// exactly like the unsharded path — merging HT partials is stratified
	// composition, so the composed variance is the one sizing needs — and
	// the sized row budget is split across shards Neyman-style.
	base := firstSampler(p)
	if base == nil {
		return nil, "no sampler placed", nil
	}
	pl.run = func(ctx context.Context, rate float64, pilot *contractRun) (contractRun, error) {
		smp := *base
		smp.Rate, smp.Seed = rate, e.Config.Seed
		var shardRates []float64
		if pilot != nil {
			smp.Seed = contractStageSeed(smp.Seed)
			shardRates = neymanRates(g, pilot.shard, rate)
		}
		sr, err := runSharded(ctx, g, stmt, p, &smp, workers, func(o *shard.ExecOptions) {
			o.CollectMoments, o.ShardRates = pilot == nil, shardRates
		})
		if err != nil {
			return contractRun{}, err
		}
		guarantee := GuaranteeAPosteriori
		if sr.degraded && !sr.summary.Extrapolated {
			guarantee = GuaranteeNone
		}
		out := annotate(stmt, sr.raw, spec, TechniqueOnline, guarantee)
		r := contractRun{res: out, rows: sr.raw.Counters.RowsEmitted, fraction: rate,
			shard: sr, shardFractions: shardRates}
		if pilot != nil {
			finish(out, sr.sampledPop, pilot, sr.messages)
			out.Diagnostics.Degraded = sr.degraded
			out.Diagnostics.Shards = sr.summary
		} else if sr.degraded {
			// A pilot that lost shards measured only part of the population.
			r.refusal = "pilot lost shards; sizing from a partial pilot cannot certify the full population"
		}
		return r, nil
	}
	return pl, "", nil
}

// neymanRates splits the sized stage-two row budget across shards from the
// pilot's per-shard spreads. Nil (every shard samples at rate) for a single
// shard — bit-identity with the unsharded engine — and when the pilot is
// missing any shard's moments.
func neymanRates(g *shard.Group, pilot *shardRun, rate float64) []float64 {
	n := g.NumShards()
	if n <= 1 || pilot.degraded || len(pilot.moments) != n {
		return nil
	}
	strata := make([]contract.ShardStratum, n)
	var totalRows float64
	for h := range strata {
		rows := 0.0
		if h < len(pilot.rows) {
			rows = float64(pilot.rows[h])
		}
		totalRows += rows
		strata[h].Rows = rows
		// Per-row spread: Var(Ŝ_h) ≈ N_h²·s_h²·(1−f)/k_h at the pilot,
		// so s_h ≈ sqrt(V_h·k_h)/N_h; the binding slot's spread drives
		// the allocation. Pruned shards (nil moments) provably hold no
		// matching rows: spread 0 earns them the minimum allocation.
		if ms := pilot.moments[h]; ms != nil && rows > 0 {
			for _, m := range ms {
				if m.Variance > 0 && m.N > 0 {
					s := math.Sqrt(m.Variance*m.N) / rows
					if s > strata[h].StdDev {
						strata[h].StdDev = s
					}
				}
			}
		} else if ms == nil && !slices.Contains(pilot.summary.Pruned, h) {
			return nil
		}
	}
	if totalRows <= 0 {
		return nil
	}
	return contract.AllocateShards(strata, rate*totalRows)
}

// ExecuteContract runs the statement under an a-priori error contract on
// the OLA engine as Stein-style two-stage prefix sampling: the pilot
// reads a fixed prefix of the seeded permutation (a without-replacement
// SRS), sizing fixes the total fraction from stage-one data alone, and
// stage two re-runs the same permutation to the sized prefix — the final
// estimate uses all rows up to a data-independently chosen cut, so its
// CI keeps nominal coverage and earns GuaranteeAPriori. Both passes run
// with spec-stopping disabled: stopping on an interim CI (peeking) is
// exactly what a contract must not do.
func (e *OLAEngine) ExecuteContract(ctx context.Context, stmt *sqlparse.SelectStmt,
	spec ErrorSpec, cfg ContractConfig) (*Result, error) {
	return runContract(ctx, "ola", nil, &ExactEngine{Catalog: e.Catalog, Workers: e.Config.Workers},
		e.contractPlan, stmt, spec, cfg)
}

func (e *OLAEngine) contractPlan(_ context.Context, stmt *sqlparse.SelectStmt,
	spec ErrorSpec, cfg ContractConfig) (*contractPlan, string, error) {

	if ok, reason := e.supported(stmt); !ok {
		return nil, reason, nil
	}
	t, err := e.Catalog.Table(stmt.From.Name)
	if err != nil {
		return nil, "", err
	}
	run := func(ctx context.Context, rate float64, pilot *contractRun) (contractRun, error) {
		if pilot != nil && rate <= pilot.fraction {
			// The pilot already read the sized prefix; it IS stage two.
			return *pilot, nil
		}
		// A MaxFraction-limited pass: the fraction cut is a data-independent
		// stopping rule, so the prefix read is an intact SRS.
		eng := &OLAEngine{Catalog: e.Catalog, Config: e.Config}
		eng.Config.StopWhenSpecMet = false
		eng.Config.MaxFraction = rate
		out, err := eng.ExecuteProgressiveContext(ctx, stmt, spec, nil)
		if err != nil {
			return contractRun{}, err
		}
		r := contractRun{res: out, rows: out.Diagnostics.Counters.RowsScanned,
			fraction: out.Diagnostics.SampleFraction}
		if pilot != nil {
			// The pilot prefix is re-read by stage two (same permutation);
			// its scan cost is still real work performed.
			out.Diagnostics.Counters.RowsScanned += pilot.rows
			out.Diagnostics.Counters.Passes = 2
		}
		return r, nil
	}
	return &contractPlan{pilotRate: cfg.pilotRate(int64(t.NumRows())), run: run}, "", nil
}

// ExecuteContract runs the statement under an a-priori error contract on
// the offline engine. The stored sample ladder has fixed sizes the
// contract cannot steer, so the engine draws two transient uniform
// samples from the base table instead: a pilot at the pilot fraction and
// a stage-two sample at the sized fraction — paying the build scans like
// any other maintenance cost and recording them in the counters.
func (e *OfflineEngine) ExecuteContract(ctx context.Context, stmt *sqlparse.SelectStmt,
	spec ErrorSpec, cfg ContractConfig) (*Result, error) {
	return runContract(ctx, "offline", injectOffline, &ExactEngine{Catalog: e.Catalog, Workers: e.Config.Workers},
		e.contractPlan, stmt, spec, cfg)
}

func (e *OfflineEngine) contractPlan(_ context.Context, stmt *sqlparse.SelectStmt,
	spec ErrorSpec, cfg ContractConfig) (*contractPlan, string, error) {

	if ok, reason := supportedForSampling(stmt); !ok {
		return nil, reason, nil
	}
	source := stmt.From.Name
	t, err := e.Catalog.Table(source)
	if err != nil {
		return nil, "", err
	}
	n := t.NumRows()
	if n == 0 {
		return nil, "empty table", nil
	}
	run := func(ctx context.Context, rate float64, pilot *contractRun) (contractRun, error) {
		seed, name := e.Config.Seed, source+"__contract_pilot"
		if pilot != nil {
			seed, name = contractStageSeed(seed), source+"__contract_stage2"
		}
		built, err := sample.BuildUniformTable(t, rate, seed, name)
		if err != nil {
			return contractRun{}, err
		}
		s := &StoredSample{Name: name, Source: source, Rate: rate,
			Data: built.Table, Rows: built.SampleRows, BuildVersion: built.BuildVersion,
			BuildRows: built.SourceRows}
		raw, err := e.executeOn(ctx, s, stmt)
		if err != nil {
			return contractRun{}, err
		}
		out := annotate(stmt, raw, spec, TechniqueOffline, GuaranteeAPosteriori)
		r := contractRun{res: out, rows: int64(s.Rows), fraction: rate}
		if pilot == nil {
			return r, nil
		}
		d := &out.Diagnostics
		d.Counters.Add(pilot.res.Diagnostics.Counters)
		// Both sample builds scan the base table: maintenance paid inline.
		d.Counters.RowsScanned += 2 * int64(n)
		d.Counters.Passes = 2
		d.Workers = exec.ResolveWorkers(ctx, e.Config.Workers)
		d.SampleFraction = float64(s.Rows) / float64(n)
		stampLineage(d, e.Catalog, source)
		d.Lineage.SampleName = s.Name
		d.Lineage.BuildVersion = s.BuildVersion
		d.Lineage.BuildRows = s.BuildRows
		r.note = fmt.Sprintf(
			"offline: contract answered from a transient %d-row uniform sample (fraction %.4g), not the stored ladder",
			s.Rows, rate)
		return r, nil
	}
	return &contractPlan{pilotRate: cfg.pilotRate(int64(n)), run: run}, "", nil
}
