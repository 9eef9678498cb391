package experiments

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

func init() {
	register("E17", "per-query engine comparison across the star-schema template suite", runE17)
}

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
	olaCfg.ChunkRows = maxInt(s.Rows/20, 1000)
	ola := core.NewOLAEngine(star.Catalog, olaCfg)
	exact := core.NewExactEngine(star.Catalog)

	spec := core.ErrorSpec{RelError: 0.1, Confidence: 0.95}
	rng := rand.New(rand.NewSource(s.Seed))

	t := &Table{ID: "E17", Title: "per-query comparison over the star template suite (10% spec)",
		Header: []string{"template", "engine", "latency", "speedup", "max_relerr", "note"}}

	for _, tpl := range workload.StarTemplates() {
		sql := tpl.Instantiate(rng)
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		exRes, err := exact.Execute(context.Background(), stmt, spec)
		if err != nil {
			return nil, err
		}
		exTime := time.Since(t0)
		t.AddRow(tpl.Name, "exact", exTime.Round(time.Microsecond).String(), "1.00", "0.0000", "")

		for _, eng := range []struct {
			name string
			core.Engine
		}{{"online", online}, {"ola", ola}} {
			t0 = time.Now()
			res, err := eng.Execute(context.Background(), stmt, spec)
			if err != nil {
				t.AddRow(tpl.Name, eng.name, "-", "-", "-", "error: "+err.Error())
				continue
			}
			el := time.Since(t0)
			note := ""
			if res.Diagnostics.FellBackToExact {
				note = "fell back to exact"
			}
			maxErr, comparable := resultMaxRelErr(exRes, res)
			errStr := f4(maxErr)
			if !comparable {
				errStr = "shape-mismatch"
			}
			t.AddRow(tpl.Name, eng.name, el.Round(time.Microsecond).String(),
				f2(float64(exTime)/float64(el)), errStr, note)
		}
	}
	t.AddNote("engine choice is per-query: samplers shine on scans and FK joins, fall back on tiny or unsupported shapes")
	return t, nil
}

// resultMaxRelErr compares aggregate items of two results row-aligned.
func resultMaxRelErr(exact, approx *core.Result) (float64, bool) {
	if exact.NumRows() != approx.NumRows() {
		return 1, false
	}
	var m float64
	for i := range exact.Rows {
		for j := range exact.Rows[i] {
			if j >= len(exact.Items[i]) || !exact.Items[i][j].IsAggregate {
				continue
			}
			if j >= len(approx.Rows[i]) {
				return 1, false
			}
			re := relErr(approx.Float(i, j), exact.Float(i, j))
			if re > m {
				m = re
			}
		}
	}
	return m, true
}
