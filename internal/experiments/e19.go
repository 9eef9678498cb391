package experiments

import (
	"fmt"

	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("E19", "approximate percentiles: sampled quantiles with DKW distribution bounds", runE19)
}

// E19 — percentile approximation. Claim (the distribution-precision side
// of the design space, à la Sample+Seek): quantiles are not linear
// aggregates, yet a uniform sample answers them with *distribution*
// guarantees — the DKW inequality bounds the empirical CDF's deviation,
// so the sampled q-quantile is bracketed by the sample's (q±ε)-quantiles.
func runE19(s Scale) (*Table, error) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: s.Seed, Rows: s.Rows, NumGroups: 8, ValueDist: "lognormal"})
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "E19", Title: "sampled percentiles with DKW intervals (lognormal values)",
		Header: []string{"quantile", "rate", "mean_rel_err", "max_rel_err", "dkw_coverage", "mean_rel_width"}}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		sql := fmt.Sprintf("SELECT PERCENTILE(ev_value, %g) FROM events", q)
		truth, err := exactFloat(ev.Catalog, sql, s.Workers)
		if err != nil {
			return nil, err
		}
		for _, rate := range []float64{0.01, 0.05} {
			var sumErr, maxErr, width float64
			covered := 0
			for tr := 0; tr < s.Trials; tr++ {
				spec := &sample.Spec{Kind: sample.KindUniformRow, Rate: rate,
					Seed: s.Seed + int64(tr)*23}
				res, err := runSampled(ev.Catalog, sql, "events", spec, s.Workers)
				if err != nil {
					return nil, err
				}
				if res.NumRows() == 0 {
					maxErr = 1
					sumErr++
					continue
				}
				est := res.Rows[0][0].AsFloat()
				re := stats.RelError(est, truth)
				sumErr += re
				if re > maxErr {
					maxErr = re
				}
				d := res.Details[0].Aggs[0]
				if truth >= d.Lo && truth <= d.Hi {
					covered++
				}
				if truth > 0 {
					width += (d.Hi - d.Lo) / truth
				}
			}
			n := float64(s.Trials)
			t.AddRow(fmt.Sprintf("p%g", q*100), pct(rate), f4(sumErr/n), f4(maxErr),
				pct(float64(covered)/n), f4(width/n))
		}
	}
	t.AddNote("DKW brackets the true quantile at ~95%% despite PERCENTILE being non-linear")
	t.AddNote("tail quantiles (p99) cost more: the CDF is flat there, so q±ε spans a wide value range")
	return t, nil
}
