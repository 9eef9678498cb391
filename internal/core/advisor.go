package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/sqlparse"
	"repro/internal/trace"
)

// Advisor routes queries to the technique that can honor the request, and
// generates the "no silver bullet" property matrix: for each technique,
// which of the desirable properties it delivers and which it gives up.
type Advisor struct {
	Exact    *ExactEngine
	Online   *OnlineEngine
	Offline  *OfflineEngine
	OLA      *OLAEngine
	Synopsis *SynopsisEngine
}

// NewAdvisor wires an advisor over a shared catalog with default configs.
func NewAdvisor(exact *ExactEngine, online *OnlineEngine, offline *OfflineEngine,
	ola *OLAEngine, syn *SynopsisEngine) *Advisor {
	return &Advisor{Exact: exact, Online: online, Offline: offline, OLA: ola, Synopsis: syn}
}

// Decision explains a routing choice.
type Decision struct {
	Technique Technique
	Guarantee Guarantee
	Reason    string
}

// Choose picks a technique for the statement under the spec without
// executing it.
func (a *Advisor) Choose(stmt *sqlparse.SelectStmt, spec ErrorSpec) Decision {
	synopsis := false
	if a.Synopsis != nil {
		_, _, _, _, err := a.Synopsis.answer(stmt)
		synopsis = err == nil
	}
	// Non-linear aggregates: synopses may still help COUNT DISTINCT.
	if ok, reason := supportedForSampling(stmt); !ok {
		if synopsis {
			return Decision{Technique: TechniqueSynopsis, Guarantee: GuaranteeAPosteriori,
				Reason: "non-linear aggregate answerable from a synopsis"}
		}
		return Decision{Technique: TechniqueExact, Guarantee: GuaranteeExact,
			Reason: "not analyzable under sampling: " + reason}
	}
	// Synopses answer their narrow class fastest.
	if synopsis {
		return Decision{Technique: TechniqueSynopsis, Guarantee: GuaranteeAPosteriori,
			Reason: "query shape matches a precomputed synopsis"}
	}
	// Offline samples give a-priori guarantees when the workload was
	// predicted, the sample is fresh, and the profile certifies the spec.
	// The engine's own selection names the sample, so the advice and the
	// answer agree on which one.
	if a.Offline != nil {
		if best, _ := a.Offline.selectSample(stmt, spec, true); best != nil {
			return Decision{Technique: TechniqueOffline, Guarantee: GuaranteeAPriori,
				Reason: fmt.Sprintf("certified fresh offline sample %s", best.name)}
		}
	}
	// Otherwise: query-time sampling, honest a-posteriori intervals.
	if a.Online != nil {
		return Decision{Technique: TechniqueOnline, Guarantee: GuaranteeAPosteriori,
			Reason: "no precomputed sample covers this query; sampling at query time"}
	}
	return Decision{Technique: TechniqueExact, Guarantee: GuaranteeExact,
		Reason: "no approximate engine available"}
}

// Execute routes and runs a statement: the chosen engine observes ctx's
// cancellation and deadline.
func (a *Advisor) Execute(ctx context.Context, stmt *sqlparse.SelectStmt, spec ErrorSpec) (*Result, Decision, error) {
	spec = ResolveSpec(stmt, spec)
	sp, _ := trace.StartSpan(ctx, "advisor")
	d := a.Choose(stmt, spec)
	sp.SetAttr("technique", string(d.Technique))
	sp.End()
	var eng Engine = a.Exact
	switch d.Technique {
	case TechniqueSynopsis:
		eng = a.Synopsis
	case TechniqueOffline:
		eng = a.Offline
	case TechniqueOnline:
		eng = a.Online
	}
	res, err := eng.Execute(ctx, stmt, spec)
	return res, d, err
}

// TechniqueProperties is one row of the no-silver-bullet matrix, measured
// (not asserted) over a probe workload.
type TechniqueProperties struct {
	Technique Technique
	// SupportedFraction: probe queries answered approximately (vs falling
	// back to exact or erroring).
	SupportedFraction float64
	// APrioriFraction: probe queries answered with an a-priori guarantee.
	APrioriFraction float64
	// MeanWorkSaved: 1 - work/exactWork averaged over supported queries,
	// where work = rows scanned + rows fed to downstream operators. Row
	// samplers still scan everything but starve the pipeline (≤50%
	// saved); block samplers and offline samples also skip the scan.
	MeanWorkSaved float64
	// PrecomputeRows: base rows scanned before the first query could run.
	PrecomputeRows int64
	// MaintenanceRows: base rows re-scanned to keep the technique valid
	// across updates (0 when nothing is precomputed).
	MaintenanceRows int64
}

// Matrix measures the property matrix over probe queries. Engines that
// are nil are skipped.
func (a *Advisor) Matrix(probe []string, spec ErrorSpec) ([]TechniqueProperties, error) {
	type engineRow struct {
		eng     Engine
		preRows int64
	}
	rows := []engineRow{{eng: a.Exact}}
	if a.Online != nil {
		rows = append(rows, engineRow{eng: a.Online})
	}
	if a.Offline != nil {
		rows = append(rows, engineRow{eng: a.Offline, preRows: a.Offline.Maintenance.RowsScanned})
	}
	if a.OLA != nil {
		rows = append(rows, engineRow{eng: a.OLA})
	}
	if a.Synopsis != nil {
		rows = append(rows, engineRow{eng: a.Synopsis, preRows: a.Synopsis.BuildRows()})
	}

	var out []TechniqueProperties
	for _, er := range rows {
		tech := er.eng.Name()
		props := TechniqueProperties{Technique: tech, PrecomputeRows: er.preRows}
		var supported, apriori int
		var workSaved float64
		var workSamples int
		for _, sql := range probe {
			stmt, err := sqlparse.Parse(sql)
			if err != nil {
				return nil, err
			}
			exactRes, err := a.Exact.Execute(context.Background(), stmt, spec)
			if err != nil {
				return nil, err
			}
			res, err := er.eng.Execute(context.Background(), stmt, spec)
			if err != nil || res.Diagnostics.FellBackToExact {
				continue
			}
			if tech == TechniqueExact {
				supported++
				continue
			}
			supported++
			if res.Guarantee == GuaranteeAPriori {
				apriori++
			}
			exactWork := float64(exactRes.Diagnostics.Counters.RowsScanned +
				exactRes.Diagnostics.Counters.RowsEmitted)
			if exactWork > 0 {
				work := float64(res.Diagnostics.Counters.RowsScanned +
					res.Diagnostics.Counters.RowsEmitted)
				saved := 1 - work/exactWork
				if saved < 0 {
					saved = 0
				}
				workSaved += saved
				workSamples++
			}
		}
		n := float64(len(probe))
		props.SupportedFraction = float64(supported) / n
		props.APrioriFraction = float64(apriori) / n
		if workSamples > 0 {
			props.MeanWorkSaved = workSaved / float64(workSamples)
		}
		if tech == TechniqueOffline {
			props.MaintenanceRows = a.Offline.Maintenance.RowsScanned - er.preRows
			if props.MaintenanceRows < 0 {
				props.MaintenanceRows = 0
			}
		}
		out = append(out, props)
	}
	return out, nil
}

// FormatMatrix renders the matrix as an aligned text table.
func FormatMatrix(rows []TechniqueProperties) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %10s %10s %10s %12s %12s\n",
		"technique", "supported", "a-priori", "work-saved", "precompute", "maintenance")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %9.0f%% %9.0f%% %9.0f%% %12d %12d\n",
			r.Technique, r.SupportedFraction*100, r.APrioriFraction*100,
			r.MeanWorkSaved*100, r.PrecomputeRows, r.MaintenanceRows)
	}
	return b.String()
}
