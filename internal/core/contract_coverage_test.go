package core

// The contract-coverage harness: the statistical check behind the
// a-priori error contract. For each sampling engine and each error
// target, many independently seeded two-stage runs execute the same
// query; every "met" verdict is checked against the exact answer. A met
// verdict promises the realized error is within the target at the
// stated confidence, so the fraction of met verdicts that actually hold
// must sit in the same binomial tolerance band coverage_test.go uses
// for plain CI coverage. Each trial also runs at two worker counts and
// must agree bit-for-bit — the contract path (pilot, sizing, stage two)
// is deterministic in (seed, contract) like everything else.

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/contract"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// contractTrialResult is what one contract trial must report.
type contractTrialResult struct {
	estimate, lo, hi float64
	verdict          contract.Verdict
	finalFraction    float64
	guarantee        Guarantee
}

// runContractTrial executes one contract run at the given worker count,
// enforcing the per-trial guards: a stamped contract block, no silent
// exact fallback, a real CI on the single aggregate.
func runContractTrial(t *testing.T, eng Engine, stmt *sqlparse.SelectStmt,
	spec ErrorSpec, cfg ContractConfig, workers int) contractTrialResult {
	t.Helper()
	ctx := exec.ContextWithWorkers(context.Background(), workers)
	res, err := ExecuteContract(ctx, eng, stmt, spec, cfg)
	if err != nil {
		t.Fatalf("%s: %v", eng.Name(), err)
	}
	sum := res.Diagnostics.Contract
	if sum == nil {
		t.Fatalf("%s: no contract summary stamped", eng.Name())
	}
	if res.Diagnostics.FellBackToExact {
		t.Fatalf("%s fell back to exact: %v", eng.Name(), res.Diagnostics.Messages)
	}
	if res.NumRows() != 1 || len(res.Items[0]) != 1 {
		t.Fatalf("%s: want one row, one item; got %d rows", eng.Name(), res.NumRows())
	}
	it := res.Items[0][0]
	if !it.IsAggregate || !it.HasCI {
		t.Fatalf("%s: aggregate item carries no CI", eng.Name())
	}
	if !(it.CI.Hi > it.CI.Lo) {
		t.Fatalf("%s: degenerate CI [%v, %v]", eng.Name(), it.CI.Lo, it.CI.Hi)
	}
	if sum.Verdict == contract.VerdictMet && res.Guarantee != GuaranteeAPriori {
		t.Fatalf("%s: met verdict with guarantee %s — a met contract must be a-priori",
			eng.Name(), res.Guarantee)
	}
	return contractTrialResult{
		estimate: res.Float(0, 0), lo: it.CI.Lo, hi: it.CI.Hi,
		verdict: sum.Verdict, finalFraction: sum.FinalFraction,
		guarantee: res.Guarantee,
	}
}

// assertContractTrialsEqual requires two runs of the same trial to agree
// bit-for-bit: estimate, interval, verdict, and the sized fraction.
func assertContractTrialsEqual(t *testing.T, name string, trial int, a, b contractTrialResult) {
	t.Helper()
	if math.Float64bits(a.estimate) != math.Float64bits(b.estimate) ||
		math.Float64bits(a.lo) != math.Float64bits(b.lo) ||
		math.Float64bits(a.hi) != math.Float64bits(b.hi) {
		t.Fatalf("%s trial %d: result differs across runs: %v [%v,%v] vs %v [%v,%v]",
			name, trial, a.estimate, a.lo, a.hi, b.estimate, b.lo, b.hi)
	}
	if a.verdict != b.verdict || math.Float64bits(a.finalFraction) != math.Float64bits(b.finalFraction) {
		t.Fatalf("%s trial %d: contract differs across runs: %s@%v vs %s@%v",
			name, trial, a.verdict, a.finalFraction, b.verdict, b.finalFraction)
	}
}

// contractTargets are the error targets of the acceptance harness.
var contractTargets = []float64{0.01, 0.02, 0.05}

// contractEngines builds one fresh engine per (kind, trial); each trial
// gets its own seed so trials are independent draws. The offline engine
// needs no stored sample: the contract path draws transient uniform
// samples (pilot + sized stage two) from the base table per run.
func contractEngines(ev *workload.Events) []struct {
	name string
	mk   func(trial int) Engine
} {
	return []struct {
		name string
		mk   func(trial int) Engine
	}{
		{"online", func(trial int) Engine {
			return NewOnlineEngine(ev.Catalog, OnlineConfig{
				DefaultRate: 0.5, MinTableRows: 1, Seed: int64(1000 + trial)})
		}},
		{"ola", func(trial int) Engine {
			return NewOLAEngine(ev.Catalog, OLAConfig{
				ChunkRows: 512, Seed: int64(3000 + trial)})
		}},
		{"offline", func(trial int) Engine {
			return NewOfflineEngine(ev.Catalog, OfflineConfig{Seed: int64(2000 + trial)})
		}},
	}
}

// TestContractCoverage: ≥500 seeded two-stage trials per engine × target.
// Every met verdict is checked against the exact answer; the held rate
// must stay in the binomial band for the stated 95% confidence, and the
// engine must certify (met) often enough that the band is meaningful.
func TestContractCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("contract harness is long; skipped under -short")
	}
	ev, stmt, truth := coverageFixture(t)
	for _, eng := range contractEngines(ev) {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			for _, target := range contractTargets {
				target := target
				t.Run(fmt.Sprintf("target=%g", target), func(t *testing.T) {
					spec := ErrorSpec{RelError: target, Confidence: 0.95}
					cfg := DefaultContractConfig()
					var met, held, infeasible int
					for trial := 0; trial < coverageTrials; trial++ {
						e := eng.mk(trial)
						serial := runContractTrial(t, e, stmt, spec, cfg, 1)
						parallel := runContractTrial(t, e, stmt, spec, cfg, 4)
						assertContractTrialsEqual(t, eng.name, trial, serial, parallel)
						switch serial.verdict {
						case contract.VerdictMet:
							met++
							if math.Abs(serial.estimate-truth) <= target*math.Abs(truth) {
								held++
							}
						case contract.VerdictInfeasible:
							infeasible++
						}
					}
					if infeasible > 0 {
						t.Errorf("%s target=%g: %d infeasible verdicts under a full budget",
							eng.name, target, infeasible)
					}
					// Sizing uses a 90% variance upper bound, so ~90% of
					// runs should certify; half is a collapse, not noise.
					if met < coverageTrials/2 {
						t.Fatalf("%s target=%g: only %d/%d trials certified met",
							eng.name, target, met, coverageTrials)
					}
					holdRate := float64(held) / float64(met)
					t.Logf("%s target=%g: met %d/%d, held %d/%d (%.4f)",
						eng.name, target, met, coverageTrials, held, met, holdRate)
					if holdRate < coverageLowBand {
						t.Errorf("%s target=%g: held rate %.4f below band %.2f — met verdicts break their promise",
							eng.name, target, holdRate, coverageLowBand)
					}
				})
			}
		})
	}
}

// TestContractShardedCoverage: the same harness over scatter-gather at 1
// and 4 shards. One shard must stay bit-identical to the unsharded path;
// four shards exercise stratified pilot composition and Neyman-allocated
// stage two, and the held rate must stay in band at every fan-out.
func TestContractShardedCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("contract harness is long; skipped under -short")
	}
	ev, stmt, truth := coverageFixture(t)
	for _, n := range []int{1, 4} {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			m := shardedFixture(t, ev, n)
			for _, target := range contractTargets {
				target := target
				t.Run(fmt.Sprintf("target=%g", target), func(t *testing.T) {
					spec := ErrorSpec{RelError: target, Confidence: 0.95}
					// The stratified pilot splits across shards, so each
					// stratum's variance bound sees only pilot/n rows; a
					// larger pilot keeps per-shard sizing sharp enough to
					// certify at the same rate as the unsharded path.
					cfg := DefaultContractConfig()
					cfg.MinPilotRows = 400
					var met, held int
					for trial := 0; trial < coverageTrials; trial++ {
						eng := NewOnlineEngine(ev.Catalog, OnlineConfig{
							DefaultRate: 0.5, MinTableRows: 1, Seed: int64(1000 + trial)})
						eng.Shards = m
						serial := runContractTrial(t, eng, stmt, spec, cfg, 1)
						parallel := runContractTrial(t, eng, stmt, spec, cfg, 4)
						assertContractTrialsEqual(t, fmt.Sprintf("sharded-%d", n), trial, serial, parallel)
						if serial.verdict == contract.VerdictMet {
							met++
							if math.Abs(serial.estimate-truth) <= target*math.Abs(truth) {
								held++
							}
						}
					}
					if met < coverageTrials/2 {
						t.Fatalf("shards=%d target=%g: only %d/%d trials certified met",
							n, target, met, coverageTrials)
					}
					holdRate := float64(held) / float64(met)
					t.Logf("shards=%d target=%g: met %d/%d, held %d/%d (%.4f)",
						n, target, met, coverageTrials, held, met, holdRate)
					if holdRate < coverageLowBand {
						t.Errorf("shards=%d target=%g: held rate %.4f below band %.2f",
							n, target, holdRate, coverageLowBand)
					}
				})
			}
		})
	}
}

// TestContractShardBitIdentity: a one-shard contract run must reproduce
// the unsharded contract run bit for bit — same pilot, same sizing, same
// stage two — and repeated runs of either must be byte-stable.
func TestContractShardBitIdentity(t *testing.T) {
	ev, stmt, _ := coverageFixture(t)
	spec := ErrorSpec{RelError: 0.02, Confidence: 0.95}
	cfg := DefaultContractConfig()
	m := shardedFixture(t, ev, 1)
	for trial := 0; trial < 25; trial++ {
		ecfg := OnlineConfig{DefaultRate: 0.5, MinTableRows: 1, Seed: int64(4000 + trial)}
		plain := NewOnlineEngine(ev.Catalog, ecfg)
		sharded := NewOnlineEngine(ev.Catalog, ecfg)
		sharded.Shards = m
		for _, w := range []int{1, 4} {
			a := runContractTrial(t, plain, stmt, spec, cfg, w)
			b := runContractTrial(t, sharded, stmt, spec, cfg, w)
			assertContractTrialsEqual(t, "shard-1-vs-unsharded", trial, a, b)
			// And the run itself is replayable: same seed, same bits.
			assertContractTrialsEqual(t, "replay", trial, a, runContractTrial(t, plain, stmt, spec, cfg, w))
		}
	}
}

// TestContractInfeasibleRefusal: a target provably unreachable within a
// tight admission budget must be refused — verdict infeasible, guarantee
// downgraded to a-posteriori, the infeasible flag in the messages — and
// stage two must not spend beyond the budget.
func TestContractInfeasibleRefusal(t *testing.T) {
	ev, stmt, _ := coverageFixture(t)
	spec := ErrorSpec{RelError: 0.001, Confidence: 0.99}
	cfg := ContractConfig{BudgetFraction: 0.2}
	for _, eng := range contractEngines(ev) {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			e := eng.mk(7)
			res, err := ExecuteContract(context.Background(), e, stmt, spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sum := res.Diagnostics.Contract
			if sum == nil {
				t.Fatal("no contract summary stamped")
			}
			if sum.Verdict != contract.VerdictInfeasible || !sum.Infeasible {
				t.Fatalf("want infeasible refusal, got verdict=%s infeasible=%v (required %.4g, budget %.4g)",
					sum.Verdict, sum.Infeasible, sum.RequiredFraction, sum.BudgetFraction)
			}
			if res.Guarantee == GuaranteeAPriori {
				t.Fatal("infeasible contract kept an a-priori guarantee")
			}
			flagged := false
			for _, msg := range res.Diagnostics.Messages {
				if strings.Contains(msg, contract.InfeasibleFlag) {
					flagged = true
				}
			}
			if !flagged {
				t.Fatalf("refusal not flagged %q in messages: %v",
					contract.InfeasibleFlag, res.Diagnostics.Messages)
			}
			// Stage two runs at the budget as best effort, never beyond.
			// (The realized fraction may exceed the nominal budget only by
			// Bernoulli rounding; a sized overshoot would be a bug.)
			if sum.FinalFraction > cfg.BudgetFraction+1e-9 {
				t.Fatalf("stage two sized at %.4g beyond budget %.4g",
					sum.FinalFraction, cfg.BudgetFraction)
			}
			if sum.RequiredFraction <= cfg.BudgetFraction {
				t.Fatalf("refusal with required %.4g within budget %.4g",
					sum.RequiredFraction, cfg.BudgetFraction)
			}
		})
	}
}

// TestContractChaosShardLoss: shard loss anywhere in a contract run must
// keep the verdict honest. A lost pilot shard forces a refusal (a partial
// pilot cannot certify the full population); a lost stage-two shard —
// even one the survivors extrapolate over — must never report "met". The
// fault schedule fires probabilistically, so the seed sweep observes both
// phases losing shards; every degraded outcome is checked.
func TestContractChaosShardLoss(t *testing.T) {
	ev, stmt, _ := coverageFixture(t)
	m := shardedFixture(t, ev, 4)
	spec := ErrorSpec{RelError: 0.02, Confidence: 0.95}
	cfg := DefaultContractConfig()
	rules, err := fault.ParseRules("shard.estimate.2:panic:0.5")
	if err != nil {
		t.Fatal(err)
	}

	var pilotLoss, stageLoss, clean int
	for seed := int64(1); seed <= 40; seed++ {
		fault.Install(fault.Schedule{Seed: seed, Rules: rules})
		eng := NewOnlineEngine(ev.Catalog, OnlineConfig{
			DefaultRate: 0.5, MinTableRows: 1, Seed: 9000 + seed})
		eng.Shards = m
		res, err := ExecuteContract(context.Background(), eng, stmt, spec, cfg)
		fault.Uninstall()
		if err != nil {
			t.Fatalf("seed %d: contract run failed outright under shard loss: %v", seed, err)
		}
		sum := res.Diagnostics.Contract
		if sum == nil {
			t.Fatalf("seed %d: no contract summary", seed)
		}
		sh := res.Diagnostics.Shards
		degraded := res.Diagnostics.Degraded || (sh != nil && (len(sh.Degraded) > 0 || sh.Extrapolated))
		pilotLost := strings.Contains(sum.Reason, "pilot lost shards")
		switch {
		case pilotLost:
			pilotLoss++
			if sum.Verdict == contract.VerdictMet {
				t.Fatalf("seed %d: met verdict sized from a partial pilot", seed)
			}
			if sum.Verdict != contract.VerdictInfeasible {
				t.Fatalf("seed %d: partial pilot not refused: verdict=%s", seed, sum.Verdict)
			}
		case degraded:
			stageLoss++
			if sum.Verdict == contract.VerdictMet {
				t.Fatalf("seed %d: met verdict on a degraded/extrapolated stage two", seed)
			}
			if res.Guarantee == GuaranteeAPriori {
				t.Fatalf("seed %d: a-priori guarantee on a degraded answer", seed)
			}
		default:
			clean++
		}
	}
	t.Logf("chaos sweep: %d pilot losses, %d stage-two losses, %d clean", pilotLoss, stageLoss, clean)
	if pilotLoss == 0 || stageLoss == 0 {
		t.Fatalf("sweep did not exercise both loss phases (pilot=%d stage=%d): adjust seeds",
			pilotLoss, stageLoss)
	}
}
