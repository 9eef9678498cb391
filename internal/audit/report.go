package audit

import (
	"fmt"
	"sort"
	"strings"
)

// TechniqueCoverage is the rolling accuracy report for one technique ×
// aggregate-type pair.
type TechniqueCoverage struct {
	Technique string  `json:"technique"`
	Aggregate string  `json:"aggregate"`
	Audits    int     `json:"audits"`
	Covered   int     `json:"covered"`
	Coverage  float64 `json:"coverage"`
	WilsonLo  float64 `json:"wilson_lo"`
	WilsonHi  float64 `json:"wilson_hi"`
	RelErrP50 float64 `json:"rel_err_p50"`
	RelErrP90 float64 `json:"rel_err_p90"`
	RelErrMax float64 `json:"rel_err_max"`
	// BudgetOK is true while the Wilson interval overlaps the target
	// coverage band (or the window is too small to judge).
	BudgetOK   bool  `json:"budget_ok"`
	Violations int64 `json:"violations"`
}

// TableReport is the drift-attribution state for one base table.
type TableReport struct {
	Table           string `json:"table"`
	Stale           bool   `json:"stale"`
	StaleMisses     int    `json:"stale_misses"`
	FreshMisses     int    `json:"fresh_misses"`
	MaxRowsAppended int    `json:"max_rows_appended"`
	Hint            string `json:"hint,omitempty"`
}

// Report is a point-in-time snapshot of the auditor: cumulative flow
// counters plus the rolling-window accuracy estimators.
type Report struct {
	Enabled  bool    `json:"enabled"`
	Fraction float64 `json:"fraction"`
	Window   int     `json:"window"`
	TargetLo float64 `json:"target_lo"`
	TargetHi float64 `json:"target_hi"`

	Offered    int64 `json:"offered"`
	Sampled    int64 `json:"sampled"`
	Deduped    int64 `json:"deduped"`
	Dropped    int64 `json:"dropped"`
	Audited    int64 `json:"audited"`
	Errors     int64 `json:"errors"`
	Unmatched  int64 `json:"unmatched_groups"`
	Violations int64 `json:"violations"`
	Panics     int64 `json:"panics"`
	Backlog    int   `json:"backlog"`

	// ShardDegradedAudits counts audited answers that were served off a
	// degraded shard group; ShardDegradedMisses is how many of their CI
	// misses are attributable to shard loss rather than the estimator.
	ShardDegradedAudits int64 `json:"shard_degraded_audits,omitempty"`
	ShardDegradedMisses int64 `json:"shard_degraded_misses,omitempty"`

	// ContractAudits counts audited answers that carried a contract
	// verdict; ContractBroken is how many "met" verdicts turned out to
	// exceed their target error against ground truth.
	ContractAudits int64 `json:"contract_audits,omitempty"`
	ContractBroken int64 `json:"contract_broken,omitempty"`

	Techniques []TechniqueCoverage `json:"techniques"`
	Contracts  []ContractCoverage  `json:"contracts,omitempty"`
	Tables     []TableReport       `json:"tables"`
	LastTraces []string            `json:"last_traces,omitempty"`
}

// Report snapshots the auditor's state.
func (a *Auditor) Report() Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := Report{
		Enabled:    a.cfg.Fraction > 0,
		Fraction:   a.cfg.Fraction,
		Window:     a.cfg.Window,
		TargetLo:   targetLo,
		TargetHi:   targetHi,
		Offered:    a.offered,
		Sampled:    a.sampled,
		Deduped:    a.deduped,
		Dropped:    a.dropped,
		Audited:    a.audited,
		Errors:     a.errors,
		Unmatched:  a.unmatched,
		Violations: a.violations,
		Panics:     a.panics,
		Backlog:    len(a.queue),

		ShardDegradedAudits: a.shardDegraded,
		ShardDegradedMisses: a.shardDegradedMiss,

		ContractAudits: a.contractAudits,
		ContractBroken: a.contractBroken,
	}
	r.Contracts = a.contractReportLocked()
	sort.Slice(r.Contracts, func(i, j int) bool {
		return r.Contracts[i].Technique < r.Contracts[j].Technique
	})
	if a.busy {
		r.Backlog++
	}
	for key, e := range a.est {
		wil := e.cov.Wilson(0.95)
		tc := TechniqueCoverage{
			Technique:  key.technique,
			Aggregate:  key.aggregate,
			Audits:     e.cov.N(),
			Covered:    e.cov.Hits(),
			Coverage:   e.cov.Rate(),
			WilsonLo:   wil.Lo,
			WilsonHi:   wil.Hi,
			RelErrP50:  e.rel.Quantile(0.5),
			RelErrP90:  e.rel.Quantile(0.9),
			RelErrMax:  e.rel.Max(),
			Violations: e.violations,
		}
		tc.BudgetOK = e.cov.N() < budgetMinAudits ||
			(wil.Hi >= targetLo && wil.Lo <= targetHi)
		r.Techniques = append(r.Techniques, tc)
	}
	sort.Slice(r.Techniques, func(i, j int) bool {
		if r.Techniques[i].Technique != r.Techniques[j].Technique {
			return r.Techniques[i].Technique < r.Techniques[j].Technique
		}
		return r.Techniques[i].Aggregate < r.Techniques[j].Aggregate
	})
	for table, ts := range a.tables {
		sm, fm := ts.counts()
		tr := TableReport{
			Table:           table,
			Stale:           ts.stale,
			StaleMisses:     sm,
			FreshMisses:     fm,
			MaxRowsAppended: ts.maxAppended(),
		}
		if ts.stale {
			tr.Hint = "rebuild offline samples / synopses for " + table
		}
		r.Tables = append(r.Tables, tr)
	}
	sort.Slice(r.Tables, func(i, j int) bool { return r.Tables[i].Table < r.Tables[j].Table })
	for i := 0; i < a.traces.N(); i++ {
		r.LastTraces = append(r.LastTraces, a.traces.At(i).Profile().String())
	}
	return r
}

// String renders the report as an aligned text table for terminal use.
func (r Report) String() string {
	var b strings.Builder
	if !r.Enabled {
		b.WriteString("accuracy auditing disabled (fraction 0)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "accuracy audit: fraction %.2f, window %d, target coverage [%.2f, %.2f]\n",
		r.Fraction, r.Window, r.TargetLo, r.TargetHi)
	fmt.Fprintf(&b, "flow: offered %d  sampled %d  deduped %d  dropped %d  audited %d  errors %d  backlog %d\n",
		r.Offered, r.Sampled, r.Deduped, r.Dropped, r.Audited, r.Errors, r.Backlog)
	if r.Unmatched > 0 || r.Violations > 0 || r.Panics > 0 {
		fmt.Fprintf(&b, "alerts: unmatched groups %d  budget violations %d  contained panics %d\n",
			r.Unmatched, r.Violations, r.Panics)
	}
	if r.ShardDegradedAudits > 0 {
		fmt.Fprintf(&b, "shards: %d audited answers served degraded, %d CI misses attributable to shard loss\n",
			r.ShardDegradedAudits, r.ShardDegradedMisses)
	}
	if r.ContractAudits > 0 {
		fmt.Fprintf(&b, "contracts: %d audited, %d \"met\" verdicts broken against ground truth\n",
			r.ContractAudits, r.ContractBroken)
		for _, cc := range r.Contracts {
			budget := "ok"
			if !cc.BudgetOK {
				budget = "BURNING"
			} else if cc.Audits < 30 {
				budget = "warming"
			}
			fmt.Fprintf(&b, "  %-16s %4d met-audits, held %.1f%% [%6.3f,%6.3f] vs required %.1f%% — %s\n",
				cc.Technique, cc.Audits, 100*cc.HoldRate, cc.WilsonLo, cc.WilsonHi, 100*cc.Required, budget)
		}
	}
	if len(r.Techniques) == 0 {
		b.WriteString("no audited queries yet\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-16s %-8s %6s %9s %17s %8s %8s %8s %s\n",
		"TECHNIQUE", "AGG", "AUDITS", "COVERAGE", "WILSON95", "RELP50", "RELP90", "RELMAX", "BUDGET")
	for _, tc := range r.Techniques {
		budget := "ok"
		if !tc.BudgetOK {
			budget = "BURNING"
		} else if tc.Audits < 30 {
			budget = "warming"
		}
		fmt.Fprintf(&b, "%-16s %-8s %6d %8.1f%% [%6.3f,%6.3f] %8.4f %8.4f %8.4f %s\n",
			tc.Technique, tc.Aggregate, tc.Audits, 100*tc.Coverage,
			tc.WilsonLo, tc.WilsonHi, tc.RelErrP50, tc.RelErrP90, tc.RelErrMax, budget)
	}
	for _, t := range r.Tables {
		if t.Stale {
			fmt.Fprintf(&b, "STALE %s: %d drift-correlated misses vs %d fresh (max %d rows appended) — %s\n",
				t.Table, t.StaleMisses, t.FreshMisses, t.MaxRowsAppended, t.Hint)
		}
	}
	return b.String()
}
