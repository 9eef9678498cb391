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

	"repro/internal/contract"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/storage"
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
}

// varianceConfidence is the one-sided chi-square level of the pilot
// variance upper bound used for sizing.
const varianceConfidence = 0.9

// DefaultContractConfig returns the engine defaults: a 5% pilot floored
// at 200 rows and the whole table as budget.
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
		sz = contract.Size(ests, pilotRate, spec.RelError, spec.Confidence,
			cfg.BudgetFraction, varianceConfidence)
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
	// pop is the population sampled: the rows the pilot fraction is a
	// fraction of.
	pop int64
	// run executes one stage — the engine's draw at rate: stage one when
	// pilot is nil, else stage two at the sized rate under an independent
	// seed, with the pilot's cost folded into the counters.
	run func(ctx context.Context, rate float64, pilot *contractRun) (contractRun, error)
}

// contractRun is what one stage reports.
type contractRun struct {
	res *Result
	// rows and fraction are the sampled rows and the realized sampling
	// fraction (OLA reads whole chunks, so it may exceed the rate asked).
	rows     int64
	fraction float64
	// moments are a sharded pilot's per-shard slot moments (nil entries
	// mark failed or pruned shards) and shardFractions a sharded stage
	// two's per-shard Neyman allocation.
	moments        [][]exec.SlotMoment
	shardFractions []float64
}

// foldPilot adds the pilot's cost to a stage-two answer: two passes over
// the data, both real work.
func foldPilot(out *Result, pilot *contractRun) {
	out.Diagnostics.Counters.Add(pilot.res.Diagnostics.Counters)
	out.Diagnostics.Counters.Passes = 2
}

// ExecuteContract runs the statement under an a-priori error contract on
// one of the three engines that can sample at a rate of the driver's
// choosing:
//
//   - online: a Bernoulli pilot at the pilot fraction, sizing, and a
//     stage-two Bernoulli run at the sized fraction with an independent
//     seed; sharded tables compose the pilot stratum-wise and split the
//     sized stage-two budget across shards by Neyman allocation;
//   - OLA: Stein-style two-stage prefix sampling — the pilot reads a fixed
//     prefix of the seeded permutation (a without-replacement SRS) and stage
//     two re-runs the same permutation to the sized prefix, both with
//     spec-stopping disabled, since stopping on an interim CI (peeking) is
//     exactly what a contract must not do;
//   - offline: the stored ladder has fixed sizes the contract cannot steer,
//     so both stages draw a uniform sample from the base table at the
//     stage's rate, as the online engine does, and read only its kept rows.
func ExecuteContract(ctx context.Context, eng Engine, stmt *sqlparse.SelectStmt,
	spec ErrorSpec, cfg ContractConfig) (*Result, error) {

	switch e := eng.(type) {
	case *OnlineEngine:
		return runContract(ctx, "online", injectOnline, e.exactEngine(), e.contractPlan, stmt, spec, cfg)
	case *OLAEngine:
		return runContract(ctx, "ola", nil, e.exactEngine(), e.contractPlan, stmt, spec, cfg)
	case *OfflineEngine:
		return runContract(ctx, "offline", injectOffline, e.exactEngine(), e.contractPlan, stmt, spec, cfg)
	}
	return nil, fmt.Errorf("core: engine %T does not support contract execution (the online, ola and offline engines do)", eng)
}

// runContract is the two-stage driver: validate the contract, let the
// engine plan (or answer exactly when the statement cannot be sampled),
// pilot, size, run stage two, grade the guarantee and conclude the verdict.
func runContract(ctx context.Context, name string, inject *fault.Point, exact *ExactEngine,
	prepare func(context.Context, *sqlparse.SelectStmt, ErrorSpec) (*contractPlan, string, error),
	stmt *sqlparse.SelectStmt, spec ErrorSpec, cfg ContractConfig) (*Result, error) {

	cfg = cfg.withDefaults()
	return engineRun(ctx, name+" contract", inject, spec, func(ctx context.Context, spec ErrorSpec) (*Result, error) {
		pl, why, err := prepare(ctx, stmt, spec)
		if err != nil {
			return nil, err
		}
		if why != "" {
			return exactContract(ctx, exact, stmt, spec, cfg, why)
		}

		psp, pctx := trace.StartSpan(ctx, "contract pilot")
		pilot, err := pl.run(pctx, cfg.pilotRate(pl.pop), nil)
		psp.End()
		if err != nil {
			return nil, err
		}
		refusal := ""
		if d := pilot.res.Diagnostics; d.Degraded && d.Shards != nil {
			// A pilot that lost shards measured only part of the population.
			refusal = "pilot lost shards; sizing from a partial pilot cannot certify the full population"
		}
		ests, badName := contractEstimates(pilot.res)
		sz, rate := sizeContract(ests, badName, refusal, pilot.fraction, spec, cfg)

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
		trace.SpanFromContext(ctx).SetAttrFloat("final_fraction", sum.FinalFraction)
		return out, nil
	})
}

func (e *OnlineEngine) contractPlan(ctx context.Context, stmt *sqlparse.SelectStmt, spec ErrorSpec) (*contractPlan, string, error) {
	d, why, err := e.draw(ctx, stmt)
	if err != nil || why != "" {
		return nil, why, err
	}
	return stagedPlan(e.Catalog, stmt, spec, d, e.Config.Seed), "", nil
}

// stagedPlan is the contract plan of a draw whose samplers sit on its plan:
// one plan, re-run with its samplers turned to the stage's rate and seed
// (seed for the pilot, an independent one derived from it for stage two).
// A scatter-gather pilot also collects per-shard slot moments: the composed
// (merged-in-shard-order) pilot sizes stage two exactly like an unsharded
// one — merging HT partials is stratified composition, so the composed
// variance is the one sizing needs — and the sized row budget is split
// across shards Neyman-style.
func stagedPlan(cat *storage.Catalog, stmt *sqlparse.SelectStmt, spec ErrorSpec,
	d draw, seed int64) *contractPlan {

	run := func(ctx context.Context, rate float64, pilot *contractRun) (contractRun, error) {
		d, seed, r := d, seed, contractRun{fraction: rate}
		if pilot == nil {
			d.moments = &r.moments
		} else {
			// Stage two draws under a mixed seed: independent inclusion
			// decisions, and the run stays a pure function of the seed.
			seed = int64(stats.SplitMix64(uint64(seed)))
			d.shardRates = neymanRates(pilot, rate)
			r.shardFractions = d.shardRates
		}
		for _, s := range plan.Scans(d.plan) {
			if s.Sample != nil {
				s.Sample.Rate, s.Sample.Seed = rate, seed
			}
		}
		out, err := execute(ctx, cat, stmt, spec, d)
		if err != nil {
			return r, err
		}
		r.res, r.rows = out, out.Diagnostics.Counters.RowsEmitted
		if pilot != nil {
			foldPilot(out, pilot)
		}
		return r, nil
	}
	return &contractPlan{pop: sampledRows(d.plan), run: run}
}

// neymanRates splits the sized stage-two row budget across shards from the
// pilot's per-shard spreads. Nil (every shard samples at rate) for an
// unsharded pilot, for a single shard — bit-identity with the unsharded
// engine — and when the pilot is missing any shard's moments.
func neymanRates(pilot *contractRun, rate float64) []float64 {
	sum := pilot.res.Diagnostics.Shards
	if sum == nil || sum.Count <= 1 || pilot.res.Diagnostics.Degraded || len(pilot.moments) != sum.Count {
		return nil
	}
	strata := make([]contract.ShardStratum, sum.Count)
	var totalRows float64
	for h := range strata {
		rows := 0.0
		if h < len(sum.RowsPerShard) {
			rows = float64(sum.RowsPerShard[h])
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
		} else if ms == nil && !slices.Contains(sum.Pruned, h) {
			return nil
		}
	}
	if totalRows <= 0 {
		return nil
	}
	return contract.AllocateShards(strata, rate*totalRows)
}

func (e *OLAEngine) contractPlan(_ context.Context, stmt *sqlparse.SelectStmt, spec ErrorSpec) (*contractPlan, string, error) {
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
		cfg := e.Config
		cfg.StopWhenSpecMet, cfg.MaxFraction = false, rate
		out, err := e.run(ctx, stmt, spec, cfg, nil)
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
	return &contractPlan{pop: int64(t.NumRows()), run: run}, "", nil
}

// contractPlan draws both stages from the base table: the stored ladder has
// fixed sizes a contract cannot steer. The statement's own samplers give
// way to a uniform sampler on its FROM scan, so a TABLESAMPLE clause does
// not thin the stage's draw a second time.
func (e *OfflineEngine) contractPlan(ctx context.Context, stmt *sqlparse.SelectStmt, spec ErrorSpec) (*contractPlan, string, error) {
	if ok, reason := supportedForSampling(stmt); !ok {
		return nil, reason, nil
	}
	p, err := buildPlan(ctx, stmt, e.Catalog)
	if err != nil {
		return nil, "", err
	}
	plan.ClearSamplers(p)
	from := plan.Scans(p)[0] // plans list the FROM scan before the joined ones
	if from.Table.NumRows() == 0 {
		return nil, "empty table", nil
	}
	from.Sample = &sample.Spec{Kind: sample.KindUniformRow, Rate: 1, Seed: e.Config.Seed}
	d := draw{tech: TechniqueOffline, guarantee: GuaranteeAPosteriori, plan: p,
		notes: []string{"offline: contract drawn from the base table, not the stored ladder"}}
	return stagedPlan(e.Catalog, stmt, spec, d, e.Config.Seed), "", nil
}
