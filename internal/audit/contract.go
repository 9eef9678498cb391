package audit

// Contract auditing: CI coverage (audit.go) checks whether the *claimed
// interval* contained the truth; this file checks the stronger a-priori
// promise — a "met" contract verdict asserts the realized error is within
// the target at the stated confidence, so across many audited contract
// answers the fraction whose true error exceeds the target must stay
// within the 1−confidence allowance. The rolling miss rate per technique,
// with Wilson bounds, is the contract error budget.

import (
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/stats"
)

// Contract event kinds delivered to Config.OnEvent.
const (
	// EventContractHeld: an audited "met" answer's true error was within
	// the contracted target.
	EventContractHeld = "contract_held"
	// EventContractBroken: an audited "met" answer's true error exceeded
	// the contracted target — one draw from the 1−confidence allowance.
	EventContractBroken = "contract_broken"
	// EventContractViolation: the rolling broken rate for a technique is
	// confidently above its allowance — the sizing model is optimistic.
	EventContractViolation = "contract_violation"
)

// contractState is the rolling contract-budget window for one technique.
// It rings held/broken outcomes alongside each claim's permitted miss
// rate (1−confidence), since different queries may contract different
// confidences into the same window.
type contractState struct {
	held      *stats.RollingCoverage
	allowance *stats.Ring[float64]

	violations int64
	violating  bool
}

// meanAllowance is the window-average permitted miss rate.
func (cs *contractState) meanAllowance() float64 {
	if cs.allowance.N() == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < cs.allowance.N(); i++ {
		sum += cs.allowance.At(i)
	}
	return sum / float64(cs.allowance.N())
}

// recordContractLocked folds one audited contract answer into the budget
// window. Only "met" verdicts enter: missed/infeasible verdicts already
// disclaimed the a-priori guarantee at serve time, so they spend no
// budget — the plain CI-coverage estimators still audit them.
func (a *Auditor) recordContractLocked(j *job, g core.Grading) []Event {
	c := j.claimed.Diagnostics.Contract
	if c == nil {
		return nil
	}
	a.contractAudits++
	worst, graded := 0.0, false
	for _, cell := range g.Cells {
		if cell.HasCI {
			worst, graded = max(worst, cell.RelError), true
		}
	}
	if c.Verdict != contract.VerdictMet || !graded {
		return nil
	}
	held := worst <= c.TargetRelError && g.Unmatched == 0

	cs := a.contracts[j.technique]
	if cs == nil {
		cs = &contractState{
			held:      stats.NewRollingCoverage(a.cfg.Window),
			allowance: stats.NewRing[float64](a.cfg.Window),
		}
		a.contracts[j.technique] = cs
	}
	cs.held.Push(held)
	cs.allowance.Push(1 - c.Confidence)

	kind := EventContractHeld
	if !held {
		kind = EventContractBroken
		a.contractBroken++
	}
	events := []Event{{Kind: kind, Technique: j.technique, RelError: worst}}

	// Budget verdict: the hold rate should sit at or above the mean
	// contracted confidence. A Wilson upper bound confidently below it
	// means broken contracts are outrunning their allowance.
	if cs.held.N() >= budgetMinAudits {
		wil := cs.held.Wilson(0.95)
		if want := 1 - cs.meanAllowance(); wil.Hi < want {
			cs.violations++
			a.violations++
			events = append(events, Event{Kind: EventContractViolation, Technique: j.technique})
			if !cs.violating {
				cs.violating = true
				if a.cfg.Logger != nil {
					a.cfg.Logger.Warn("audit: contract budget burn",
						"technique", j.technique, "hold_rate", cs.held.Rate(),
						"wilson_hi", wil.Hi, "required", want, "window", cs.held.N())
				}
			}
		} else {
			cs.violating = false
		}
	}
	return events
}

// ContractCoverage is the rolling contract-budget report for one
// technique.
type ContractCoverage struct {
	Technique string `json:"technique"`
	// Audits counts windowed "met"-verdict answers checked against truth.
	Audits int `json:"audits"`
	Held   int `json:"held"`
	// HoldRate is the fraction held; it should sit at or above Required.
	HoldRate float64 `json:"hold_rate"`
	WilsonLo float64 `json:"wilson_lo"`
	WilsonHi float64 `json:"wilson_hi"`
	// Required is the window-mean contracted confidence.
	Required   float64 `json:"required"`
	BudgetOK   bool    `json:"budget_ok"`
	Violations int64   `json:"violations"`
}

// contractReportLocked snapshots the per-technique contract budgets.
func (a *Auditor) contractReportLocked() []ContractCoverage {
	out := make([]ContractCoverage, 0, len(a.contracts))
	for tech, cs := range a.contracts {
		wil := cs.held.Wilson(0.95)
		cc := ContractCoverage{
			Technique:  tech,
			Audits:     cs.held.N(),
			Held:       cs.held.Hits(),
			HoldRate:   cs.held.Rate(),
			WilsonLo:   wil.Lo,
			WilsonHi:   wil.Hi,
			Required:   1 - cs.meanAllowance(),
			Violations: cs.violations,
		}
		cc.BudgetOK = cs.held.N() < budgetMinAudits || wil.Hi >= cc.Required
		out = append(out, cc)
	}
	return out
}
