package experiments

import (
	"context"
	"math/rand"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/sample"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

func init() {
	register("E17", "per-query engine comparison across the star-schema template suite", runE17)
}

// e17WarmRuns is how many runs after the cold one E17's warm latency is
// the median of.
const e17WarmRuns = 5

// E17 — the per-query view. Claim: engine choice is per-query, not
// per-system: across a realistic template suite each engine wins on some
// queries and degrades or falls back on others. This is the
// query-granularity version of E12's matrix.
func runE17(s Scale) (*Table, error) {
	star, err := workload.GenerateStar(workload.Config{Seed: s.Seed, LineitemRows: s.Rows})
	if err != nil {
		return nil, err
	}
	onCfg := core.DefaultOnlineConfig()
	onCfg.MinTableRows = 1000
	onCfg.DefaultRate = 0.02
	online := core.NewOnlineEngine(star.Catalog, onCfg)
	olaCfg := core.DefaultOLAConfig()
	olaCfg.ChunkRows = max(s.Rows/20, 1000)
	ola := core.NewOLAEngine(star.Catalog, olaCfg)
	exact := core.NewExactEngine(star.Catalog)

	spec := core.ErrorSpec{RelError: 0.1, Confidence: 0.95}
	rng := rand.New(rand.NewSource(s.Seed))
	// timeIt runs stmt on eng first cold — no row-sampling decision
	// remembered, as in a fresh process — then e17WarmRuns times more, and
	// returns the cold latency, the median warm one and the first result.
	timeIt := func(eng core.Engine, stmt *sqlparse.SelectStmt) (cold, warm time.Duration, res *core.Result, err error) {
		sample.ForgetKept()
		runs := make([]time.Duration, 0, e17WarmRuns)
		for r := 0; r <= e17WarmRuns; r++ {
			t0 := time.Now()
			out, err := eng.Execute(context.Background(), stmt, spec)
			if err != nil {
				return 0, 0, nil, err
			}
			if el := time.Since(t0); r == 0 {
				cold, res = el, out
			} else {
				runs = append(runs, el)
			}
		}
		slices.Sort(runs)
		return cold, runs[len(runs)/2], res, nil
	}
	us := func(d time.Duration) string { return d.Round(time.Microsecond).String() }

	t := &Table{ID: "E17", Title: "per-query comparison over the star template suite (10% spec)",
		Header: []string{"template", "engine", "cold", "latency", "speedup", "max_relerr", "note"}}

	for _, tpl := range workload.StarTemplates() {
		sql := tpl.Instantiate(rng)
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, err
		}
		exCold, exTime, exRes, err := timeIt(exact, stmt)
		if err != nil {
			return nil, err
		}
		t.AddRow(tpl.Name, "exact", us(exCold), us(exTime), "1.00", "0.0000", "")

		for _, eng := range []struct {
			name string
			core.Engine
		}{{"online", online}, {"ola", ola}} {
			cold, el, res, err := timeIt(eng, stmt)
			if err != nil {
				t.AddRow(tpl.Name, eng.name, "-", "-", "-", "-", "error: "+err.Error())
				continue
			}
			note := ""
			if res.Diagnostics.FellBackToExact {
				note = "fell back to exact"
			}
			errStr := "shape-mismatch"
			if g := core.Grade(res, exRes); g.Unmatched == 0 {
				errStr = f4(g.MaxRelError())
			}
			t.AddRow(tpl.Name, eng.name, us(cold), us(el), f2(float64(exTime)/float64(el)), errStr, note)
		}
	}
	t.AddNote("cold is a first run with no row-sampling decision remembered; latency is the median of the next %d, and speedup compares those", e17WarmRuns)
	t.AddNote("OLA keeps its row permutation across templates: only its first template's cold run draws it")
	t.AddNote("engine choice is per-query: samplers shine on scans and FK joins, fall back on tiny or unsupported shapes")
	return t, nil
}
