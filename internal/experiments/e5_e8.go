package experiments

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/workload"
)

func init() {
	register("E5", "offline vs online sampling as workload predictability degrades", runE5)
	register("E6", "maintenance: stale offline samples drift; rebuild cost", runE6)
	register("E7", "empirical coverage of nominal 95% CIs across scenarios", runE7)
	register("E8", "synopses vs sampling vs exact: speed and generality", runE8)
}

// E5 — offline vs online under workload drift. Claim: precomputed
// stratified samples beat query-time sampling when the query column set
// was predicted, and degrade to exact fallbacks when the workload moves
// out of the predicted set; online sampling is indifferent to prediction.
func runE5(s Scale) (*Table, error) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: s.Seed, Rows: s.Rows, NumGroups: 32, Skew: 1.1})
	if err != nil {
		return nil, err
	}
	inQCS := "SELECT ev_group, SUM(ev_value) AS s, COUNT(*) AS n FROM events GROUP BY ev_group"
	outQCS := []string{
		"SELECT ev_flag, SUM(ev_value) AS s FROM events GROUP BY ev_flag",
		"SELECT AVG(ev_value) FROM events WHERE ev_user < 1000",
		"SELECT SUM(ev_value) FROM events WHERE ev_ts BETWEEN 100 AND 50000",
	}

	// The sample ladder must scale with the data: the top rung holds a
	// quarter of an average group so the profiled error stays certifiable.
	offCfg := core.DefaultOfflineConfig()
	offCfg.Caps = []int{1024, max(s.Rows/32/4, 2048)}
	offCfg.UniformRates = []float64{0.01}
	offCfg.SafetyFactor = 1.2
	offline := core.NewOfflineEngine(ev.Catalog, offCfg)
	if err := offline.BuildSamples("events", [][]string{{"ev_group"}}); err != nil {
		return nil, err
	}
	if err := offline.ProfileQuery(inQCS); err != nil {
		return nil, err
	}
	onCfg := core.DefaultOnlineConfig()
	onCfg.MinTableRows = 1000
	onCfg.DefaultRate = 0.01
	online := core.NewOnlineEngine(ev.Catalog, onCfg)
	exact := core.NewExactEngine(ev.Catalog)

	spec := core.ErrorSpec{RelError: 0.15, Confidence: 0.95}
	t := &Table{ID: "E5", Title: "offline vs online as the workload leaves the predicted QCS",
		Header: []string{"qcs_hit_rate", "engine", "apriori_frac", "fallback_frac", "mean_work_frac"}}

	rng := rand.New(rand.NewSource(s.Seed))
	for _, hit := range []float64{1.0, 0.5, 0.0} {
		nq := 12
		queries := make([]string, nq)
		for i := range queries {
			if rng.Float64() < hit {
				queries[i] = inQCS
			} else {
				queries[i] = outQCS[rng.Intn(len(outQCS))]
			}
		}
		for _, eng := range []struct {
			name string
			core.Engine
		}{{"offline", offline}, {"online", online}} {
			var apriori, fellBack int
			var scanFrac float64
			for _, q := range queries {
				st, err := sqlparse.Parse(q)
				if err != nil {
					return nil, err
				}
				exactRes, err := exact.Execute(context.Background(), st, spec)
				if err != nil {
					return nil, err
				}
				res, err := eng.Execute(context.Background(), st, spec)
				if err != nil {
					return nil, err
				}
				if res.Guarantee == core.GuaranteeAPriori {
					apriori++
				}
				if res.Diagnostics.FellBackToExact {
					fellBack++
				}
				exWork := float64(exactRes.Diagnostics.Counters.RowsScanned +
					exactRes.Diagnostics.Counters.RowsEmitted)
				if exWork > 0 {
					work := float64(res.Diagnostics.Counters.RowsScanned +
						res.Diagnostics.Counters.RowsEmitted)
					scanFrac += work / exWork
				}
			}
			t.AddRow(pct(hit), eng.name,
				pct(float64(apriori)/float64(nq)),
				pct(float64(fellBack)/float64(nq)),
				f4(scanFrac/float64(nq)))
		}
	}
	t.AddNote("offline keeps a-priori guarantees only while queries hit the predicted QCS")
	t.AddNote("online never certifies a-priori but is unaffected by workload drift")
	return t, nil
}

// E6 — maintenance. Claim: offline samples silently go stale under
// updates — serving them grows bias without any warning from their CIs —
// and staying fresh costs periodic full rebuild scans; query-time
// sampling has no such liability.
func runE6(s Scale) (*Table, error) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: s.Seed, Rows: s.Rows, NumGroups: 16})
	if err != nil {
		return nil, err
	}
	sql := "SELECT SUM(ev_value) AS s FROM events"
	offCfg := core.DefaultOfflineConfig()
	offCfg.Caps = nil
	offCfg.UniformRates = []float64{0.02}
	offCfg.StalePolicy = core.StaleServe
	offline := core.NewOfflineEngine(ev.Catalog, offCfg)
	if err := offline.BuildSamples("events", nil); err != nil {
		return nil, err
	}
	if err := offline.ProfileQuery(sql); err != nil {
		return nil, err
	}
	onCfg := core.DefaultOnlineConfig()
	onCfg.MinTableRows = 1000
	onCfg.DefaultRate = 0.02
	online := core.NewOnlineEngine(ev.Catalog, onCfg)
	spec := core.ErrorSpec{RelError: 0.2, Confidence: 0.95}

	t := &Table{ID: "E6", Title: "staleness: error drift of unmaintained offline samples",
		Header: []string{"update_step", "table_rows", "offline_relerr", "offline_guarantee", "online_relerr"}}
	batch := s.Rows / 10
	for step := 0; step <= 4; step++ {
		if step > 0 {
			// Updates with a 5x shifted value distribution.
			if err := ev.AppendShifted(batch, 5, s.Seed+int64(step)); err != nil {
				return nil, err
			}
		}
		truth, err := exactFloat(ev.Catalog, sql, s.Workers)
		if err != nil {
			return nil, err
		}
		st, _ := sqlparse.Parse(sql)
		offRes, err := offline.Execute(context.Background(), st, spec)
		if err != nil {
			return nil, err
		}
		onRes, err := online.Execute(context.Background(), st, spec)
		if err != nil {
			return nil, err
		}
		tbl, _ := ev.Catalog.Table("events")
		t.AddRow(itoa(int64(step)), itoa(int64(tbl.NumRows())),
			f4(stats.RelError(offRes.Float(0, 0), truth)), offRes.Guarantee.String(),
			f4(stats.RelError(onRes.Float(0, 0), truth)))
	}
	// The cost of becoming fresh again.
	before := offline.MaintenanceStats().RowsScanned
	if err := offline.Rebuild("events"); err != nil {
		return nil, err
	}
	after := offline.MaintenanceStats().RowsScanned
	t.AddNote("rebuild scanned %d rows to restore freshness (cumulative maintenance: %d rows)",
		after-before, after)
	t.AddNote("the stale sample's own CI stays narrow while its bias grows — maintenance is not optional")
	return t, nil
}

// E7 — CI coverage. Claim: nominal confidence intervals are honest in the
// textbook case but quietly undercover for tiny effective samples,
// selective predicates, and joins over correlated samples — the paper's
// warning that error guarantees are the hardest part of AQP.
func runE7(s Scale) (*Table, error) {
	// Two stars: one with uniform join fan-out, one where Zipf-skewed
	// order keys give the join heavy per-key clusters — the correlation
	// that CLT-over-rows quietly ignores.
	star, err := workload.GenerateStar(workload.Config{Seed: s.Seed, LineitemRows: s.Rows})
	if err != nil {
		return nil, err
	}
	skewed, err := workload.GenerateStar(workload.Config{Seed: s.Seed + 1, LineitemRows: s.Rows, Skew: 1.2})
	if err != nil {
		return nil, err
	}
	trials := s.Trials * 4
	conf := 0.95

	const joinSQL = "SELECT SUM(l_extendedprice) FROM lineitem JOIN orders ON l_orderkey = o_orderkey"
	uniformBoth := func(p plan.Node, seed int64) {
		plan.ApplySampler(p, "lineitem", sample.Spec{Kind: sample.KindUniformRow, Rate: 0.05, Seed: seed})
		plan.ApplySampler(p, "orders", sample.Spec{Kind: sample.KindUniformRow, Rate: 0.05, Seed: seed + 3})
	}
	universeBoth := func(p plan.Node, seed int64) {
		salt := uint64(seed)*0x9e3779b97f4a7c15 + 17
		plan.ApplySampler(p, "lineitem", sample.Spec{Kind: sample.KindUniverse, Rate: 0.05,
			KeyColumns: []string{"l_orderkey"}, Salt: salt})
		plan.ApplySampler(p, "orders", sample.Spec{Kind: sample.KindUniverse, Rate: 0.05,
			KeyColumns: []string{"o_orderkey"}, Salt: salt, NoWeight: true})
	}

	type scenario struct {
		name  string
		sql   string
		cat   *storage.Catalog
		apply func(p plan.Node, seed int64)
	}
	scenarios := []scenario{
		{
			name: "uniform-sum-1pct",
			sql:  "SELECT SUM(l_extendedprice) FROM lineitem",
			cat:  star.Catalog,
			apply: func(p plan.Node, seed int64) {
				plan.ApplySampler(p, "lineitem", sample.Spec{Kind: sample.KindUniformRow, Rate: 0.01, Seed: seed})
			},
		},
		{
			name: "selective-predicate",
			sql:  "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_quantity = 1 AND l_discount < 0.005",
			cat:  star.Catalog,
			apply: func(p plan.Node, seed int64) {
				plan.ApplySampler(p, "lineitem", sample.Spec{Kind: sample.KindUniformRow, Rate: 0.01, Seed: seed})
			},
		},
		{name: "join-uniform-both/flat", sql: joinSQL, cat: star.Catalog, apply: uniformBoth},
		{name: "join-universe-both/flat", sql: joinSQL, cat: star.Catalog, apply: universeBoth},
		{name: "join-uniform-both/zipf", sql: joinSQL, cat: skewed.Catalog, apply: uniformBoth},
		{name: "join-universe-both/zipf", sql: joinSQL, cat: skewed.Catalog, apply: universeBoth},
	}
	t := &Table{ID: "E7", Title: "empirical coverage of nominal 95% confidence intervals",
		Header: []string{"scenario", "trials", "coverage", "mean_ci_rel", "mean_relerr"}}
	for _, sc := range scenarios {
		truth, err := exactFloat(sc.cat, sc.sql, s.Workers)
		if err != nil {
			return nil, err
		}
		var covered int
		var ciRel, meanErr float64
		var valid int
		stmt, _ := sqlparse.Parse(sc.sql)
		for tr := 0; tr < trials; tr++ {
			p, err := plan.Build(stmt, sc.cat)
			if err != nil {
				return nil, err
			}
			sc.apply(p, s.Seed+int64(tr)*131)
			res, err := exec.RunParallel(p, s.Workers)
			if err != nil {
				return nil, err
			}
			if res.NumRows() == 0 || res.Details == nil || res.Details[0] == nil {
				// Empty sample: the CI does not even exist — count as a miss.
				continue
			}
			d := res.Details[0].Aggs[0]
			iv := stats.CLTInterval(d.Estimate, d.Variance, d.N, conf)
			valid++
			if iv.Contains(truth) {
				covered++
			}
			ciRel += iv.RelHalfWidth(d.Estimate)
			meanErr += stats.RelError(d.Estimate, truth)
		}
		cov := float64(covered) / float64(trials)
		denom := float64(max(valid, 1))
		t.AddRow(sc.name, itoa(int64(trials)), pct(cov), f4(ciRel/denom), f4(meanErr/denom))
	}
	t.AddNote("empty samples count as misses: a CI that never existed cannot cover")
	t.AddNote("undercoverage on selective/join scenarios is the paper's 'no honest guarantee' warning")
	return t, nil
}

// E8 — synopses. Claim: a precomputed synopsis answers its narrow query
// class in microseconds and zero scanned rows, but generality collapses
// outside that class — the reason synopses alone cannot carry AQP.
func runE8(s Scale) (*Table, error) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: s.Seed, Rows: s.Rows, NumGroups: 64, Skew: 1.2})
	if err != nil {
		return nil, err
	}
	syn := core.NewSynopsisEngine(ev.Catalog)
	buildStart := time.Now()
	for _, col := range []string{"ev_value", "ev_user", "ev_group"} {
		if err := syn.BuildColumn("events", col, 128); err != nil {
			return nil, err
		}
	}
	buildTime := time.Since(buildStart)
	exact := core.NewExactEngine(ev.Catalog)

	probes := []struct {
		name string
		sql  string
	}{
		{"range-count", "SELECT COUNT(*) FROM events WHERE ev_value BETWEEN 20 AND 120"},
		{"point-count", "SELECT COUNT(*) FROM events WHERE ev_group = 2"},
		{"distinct-count", "SELECT COUNT(DISTINCT ev_user) FROM events"},
		{"sum (unsupported)", "SELECT SUM(ev_value) FROM events"},
		{"group-by (unsupported)", "SELECT ev_group, COUNT(*) FROM events GROUP BY ev_group"},
	}
	t := &Table{ID: "E8", Title: "synopses vs sampling vs exact",
		Header: []string{"query", "method", "latency", "rows_scanned", "rel_err"}}
	for _, pr := range probes {
		stmt, _ := sqlparse.Parse(pr.sql)
		t0 := time.Now()
		exRes, err := exact.Execute(context.Background(), stmt, core.DefaultErrorSpec)
		if err != nil {
			return nil, err
		}
		exTime := time.Since(t0)
		truth := exRes.Float(0, 0)
		t.AddRow(pr.name, "exact", exTime.Round(time.Microsecond).String(),
			itoa(exRes.Diagnostics.Counters.RowsScanned), "0.0000")

		// Synopsis attempt.
		t0 = time.Now()
		synRes, err := syn.Execute(context.Background(), stmt, core.DefaultErrorSpec)
		if err != nil {
			t.AddRow(pr.name, "synopsis", "-", "-", "unsupported")
		} else {
			t.AddRow(pr.name, "synopsis", time.Since(t0).Round(time.Microsecond).String(),
				"0", f4(stats.RelError(synRes.Float(0, 0), truth)))
		}

		// Uniform 1% sample attempt (only valid for linear aggregates).
		if supportedLinear(stmt) {
			spec := &sample.Spec{Kind: sample.KindUniformRow, Rate: 0.01, Seed: s.Seed}
			t0 = time.Now()
			res, err := runSampled(ev.Catalog, pr.sql, "events", spec, s.Workers)
			if err == nil && res.NumRows() > 0 {
				t.AddRow(pr.name, "uniform-1%", time.Since(t0).Round(time.Microsecond).String(),
					itoa(res.Counters.RowsScanned), f4(stats.RelError(res.Rows[0][0].AsFloat(), truth)))
			}
		} else {
			t.AddRow(pr.name, "uniform-1%", "-", "-", "unsupported")
		}
	}
	t.AddNote("synopsis build cost: %s over %d rows (amortized across all future queries of its class)",
		buildTime.Round(time.Microsecond), s.Rows)
	t.AddNote("synopses: zero scan, narrow class; sampling: broad class, must touch data; exact: everything, full cost")
	return t, nil
}

func supportedLinear(stmt *sqlparse.SelectStmt) bool {
	for _, a := range stmt.Aggregates() {
		if !a.Func.Linear() || a.Distinct {
			return false
		}
	}
	return true
}
