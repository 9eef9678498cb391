package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/workload"
)

func init() {
	register("E13", "outlier index: variance reduction on heavy-tailed sums", runE13)
	register("E14", "budgeted offline sample selection: coverage vs storage", runE14)
	register("E15", "block-sampling design effect: clustered vs shuffled layout", runE15)
}

// E13 — outlier index. Claim (from the lineage the paper surveys,
// Chaudhuri et al. 2001): on heavy-tailed aggregation columns a plain
// uniform sample has huge variance because a few rows carry the sum;
// storing the top-k outliers exactly and sampling only the remainder
// collapses the variance at nearly the same storage.
func runE13(s Scale) (*Table, error) {
	// Pareto(1.5) values: infinite variance — the regime where a plain
	// uniform sample is at the mercy of whether it caught the tail.
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: s.Seed, Rows: s.Rows, NumGroups: 8, ValueDist: "pareto"})
	if err != nil {
		return nil, err
	}
	truth, err := exactFloat(ev.Catalog, "SELECT SUM(ev_value) FROM events", s.Workers)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "E13", Title: "outlier index vs plain uniform sample (heavy-tailed SUM)",
		Header: []string{"method", "storage_rows", "mean_rel_err", "max_rel_err", "mean_ci_rel"}}

	rate := 0.01
	kOutliers := s.Rows / 200 // 0.5% of rows stored exactly

	// Plain uniform sample at a storage-equivalent rate.
	plainRate := rate + float64(kOutliers)/float64(s.Rows)
	var plainErr, plainMax, plainCI float64
	var plainRows int
	for tr := 0; tr < s.Trials; tr++ {
		spec := &sample.Spec{Kind: sample.KindUniformRow, Rate: plainRate, Seed: s.Seed + int64(tr)*7}
		res, err := runSampled(ev.Catalog, "SELECT SUM(ev_value) FROM events", "events", spec, s.Workers)
		if err != nil {
			return nil, err
		}
		est := res.Rows[0][0].AsFloat()
		re := stats.RelError(est, truth)
		plainErr += re
		if re > plainMax {
			plainMax = re
		}
		d := res.Details[0].Aggs[0]
		plainCI += stats.CLTInterval(d.Estimate, d.Variance, d.N, 0.95).RelHalfWidth(est)
		plainRows = int(res.Counters.RowsEmitted)
	}
	n := float64(s.Trials)
	t.AddRow("uniform (storage-matched)", itoa(int64(plainRows)),
		f4(plainErr/n), f4(plainMax), f4(plainCI/n))

	// Outlier index: top-k exact + remainder sampled at rate.
	tbl, err := ev.Catalog.Table("events")
	if err != nil {
		return nil, err
	}
	var oiErr, oiMax, oiCI float64
	var oiRows int
	for tr := 0; tr < s.Trials; tr++ {
		idx, err := sample.BuildOutlierIndex(tbl, "ev_value", kOutliers, rate,
			s.Seed+int64(tr)*13, fmt.Sprintf("oi%d", tr))
		if err != nil {
			return nil, err
		}
		est, variance := idx.EstimateSum()
		re := stats.RelError(est, truth)
		oiErr += re
		if re > oiMax {
			oiMax = re
		}
		oiCI += stats.CLTInterval(est, variance, float64(idx.SampleRows), 0.95).RelHalfWidth(est)
		oiRows = idx.StorageRows()
	}
	t.AddRow("outlier-index (top 0.5% exact)", itoa(int64(oiRows)),
		f4(oiErr/n), f4(oiMax), f4(oiCI/n))
	t.AddNote("same storage, same aggregate: removing the tail from the sampled part shrinks both error and CI")
	return t, nil
}

// E14 — budgeted sample selection. Claim: with a storage budget and a
// predicted workload over several query column sets, greedy
// benefit-per-row selection covers most of the workload weight long
// before the budget could hold every sample.
func runE14(s Scale) (*Table, error) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: s.Seed, Rows: s.Rows, NumGroups: 64, Skew: 1.0})
	if err != nil {
		return nil, err
	}
	tbl, err := ev.Catalog.Table("events")
	if err != nil {
		return nil, err
	}
	// A workload over four QCS with descending weights. ev_group has 64
	// strata, ev_user many, ev_flag two; the compound set subsumes two
	// others.
	cands := []core.QCSCandidate{
		{QCS: []string{"ev_group"}, Weight: 0.4},
		{QCS: []string{"ev_flag"}, Weight: 0.3},
		{QCS: []string{"ev_group", "ev_flag"}, Weight: 0.2},
		{QCS: []string{"ev_user"}, Weight: 0.1},
	}
	cap := 512
	t := &Table{ID: "E14", Title: "greedy sample selection under a storage budget",
		Header: []string{"budget_rows", "samples_chosen", "covered_weight", "rows_used", "chosen"}}
	for _, budgetFrac := range []float64{0.02, 0.1, 0.5, 1.5} {
		budget := int(budgetFrac * float64(s.Rows))
		plan, err := core.PlanSampleBudget(tbl, cands, cap, budget)
		if err != nil {
			return nil, err
		}
		var covered float64
		var used int
		var names []string
		for _, p := range plan {
			covered += p.Covers
			used += p.Rows
			names = append(names, "("+strings.Join(p.QCS, ",")+")")
		}
		t.AddRow(itoa(int64(budget)), itoa(int64(len(plan))), pct(covered),
			itoa(int64(used)), strings.Join(names, " "))
	}
	t.AddNote("the compound QCS subsumes its parts, so greedy picks it once the budget allows")
	t.AddNote("high-cardinality QCS (ev_user) is the expensive straggler — the last weight bought")
	return t, nil
}

// E15 — block-sampling design effect. Claim: block sampling's statistical
// efficiency depends on the physical layout. When blocks are heterogeneous
// (data shuffled) a block sample behaves almost like a row sample of equal
// size; when the table is clustered (sorted by a correlated key) blocks
// are internally homogeneous and the effective sample size collapses.
func runE15(s Scale) (*Table, error) {
	blockSize := 512
	makeTable := func(clustered bool) (*storage.Catalog, error) {
		rng := rand.New(rand.NewSource(s.Seed))
		// ev_value correlates strongly with a region id; clustering by
		// region makes blocks homogeneous.
		n := s.Rows
		regions := 64
		type row struct {
			region int
			value  float64
		}
		rows := make([]row, n)
		for i := range rows {
			r := rng.Intn(regions)
			rows[i] = row{region: r, value: float64(r)*100 + rng.Float64()*10}
		}
		if clustered {
			// Sorting by region clusters equal-value rows into blocks.
			sort.SliceStable(rows, func(i, j int) bool { return rows[i].region < rows[j].region })
		}
		cat := storage.NewCatalog()
		tbl := storage.NewTableWithBlockSize("t", storage.Schema{
			{Name: "region", Type: storage.TypeInt64},
			{Name: "v", Type: storage.TypeFloat64},
		}, blockSize)
		batch := make([][]storage.Value, 0, 4096)
		for _, r := range rows {
			batch = append(batch, []storage.Value{
				storage.Int64(int64(r.region)), storage.Float64(r.value)})
			if len(batch) == cap(batch) {
				if err := tbl.AppendRows(batch); err != nil {
					return nil, err
				}
				batch = batch[:0]
			}
		}
		if len(batch) > 0 {
			if err := tbl.AppendRows(batch); err != nil {
				return nil, err
			}
		}
		if err := cat.Add(tbl); err != nil {
			return nil, err
		}
		return cat, nil
	}

	t := &Table{ID: "E15", Title: "block sampling vs physical layout (AVG over correlated column)",
		Header: []string{"layout", "sampler", "rate", "mean_rel_err", "max_rel_err"}}
	sqlQ := "SELECT AVG(v) FROM t"
	for _, layout := range []struct {
		name      string
		clustered bool
	}{{"shuffled", false}, {"clustered", true}} {
		cat, err := makeTable(layout.clustered)
		if err != nil {
			return nil, err
		}
		truth, err := exactFloat(cat, sqlQ, s.Workers)
		if err != nil {
			return nil, err
		}
		// All three schemes at a 2% overall rate: row (scans everything),
		// block (skips 98% of blocks, correlated rows), and bi-level
		// (20% of blocks × 10% of their rows = 2% overall, decorrelated).
		for _, m := range []struct {
			name string
			spec sample.Spec
		}{
			{"row", sample.Spec{Kind: sample.KindUniformRow, Rate: 0.02}},
			{"block", sample.Spec{Kind: sample.KindBlock, Rate: 0.02}},
			{"bilevel", sample.Spec{Kind: sample.KindBiLevel, Rate: 0.2, RowRate: 0.1}},
		} {
			var meanErr, maxErr float64
			for tr := 0; tr < s.Trials; tr++ {
				spec := m.spec
				spec.Seed = s.Seed + int64(tr)*19
				res, err := runSampled(cat, sqlQ, "t", &spec, s.Workers)
				if err != nil {
					return nil, err
				}
				re := 1.0
				if res.NumRows() > 0 {
					re = stats.RelError(res.Rows[0][0].AsFloat(), truth)
				}
				meanErr += re
				if re > maxErr {
					maxErr = re
				}
			}
			t.AddRow(layout.name, m.name, pct(0.02), f4(meanErr/float64(s.Trials)), f4(maxErr))
		}
	}
	t.AddNote("shuffled layout: block ≈ row sampling; clustered layout: block error explodes")
	t.AddNote("bi-level (20%% of blocks × 10%% of rows) recovers most of the accuracy while still skipping 80%% of I/O")
	return t, nil
}
