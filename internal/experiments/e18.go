package experiments

import (
	"math"

	"repro/internal/sample"
	"repro/internal/storage"
	"repro/internal/workload"
)

func init() {
	register("E18", "Neyman vs equal-cap stratified allocation at equal storage", runE18)
}

// E18 — allocation ablation. Claim (STRAT, in the surveyed lineage):
// splitting a fixed sample budget across strata in proportion to N_h·S_h
// (Neyman allocation) minimizes the variance of totals; equal per-stratum
// caps — the simple BlinkDB-style rule — waste budget on quiet strata.
// The gap grows with the heterogeneity of per-stratum spreads.
func runE18(s Scale) (*Table, error) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: s.Seed, Rows: s.Rows, NumGroups: 32, Skew: 0, ValueDist: "lognormal"})
	if err != nil {
		return nil, err
	}
	tbl := ev.Table

	// Make the strata heterogeneous: scale each group's values by its id,
	// so spreads differ by more than an order of magnitude. We materialize
	// a derived table rather than mutating the generator's output.
	src := storage.NewTable("hetero", tbl.Schema())
	gIdx := tbl.Schema().ColumnIndex("ev_group")
	vIdx := tbl.Schema().ColumnIndex("ev_value")
	for i := 0; i < tbl.NumRows(); i++ {
		row := tbl.Row(i)
		g := row[gIdx].I
		row[vIdx] = storage.Float64(row[vIdx].F * float64(g*g))
		if err := src.AppendRow(row...); err != nil {
			return nil, err
		}
	}
	var truth float64
	for i := 0; i < src.NumRows(); i++ {
		truth += src.Column(vIdx).Value(i).F
	}

	sumOf := func(st *sample.StratifiedResult) float64 {
		vi := st.Table.Schema().ColumnIndex("ev_value")
		wi := st.Table.Schema().ColumnIndex(sample.WeightColumn)
		var sum float64
		for i := 0; i < st.Table.NumRows(); i++ {
			sum += st.Table.Column(vi).Value(i).F * st.Table.Column(wi).Value(i).F
		}
		return sum
	}

	t := &Table{ID: "E18", Title: "stratified allocation: Neyman vs equal caps (SUM, equal storage)",
		Header: []string{"budget_rows", "method", "mean_rel_err", "max_rel_err", "rows_used"}}
	// Budgets scale with the table so the allocation pressure (budget ≪
	// stratum sizes) is preserved at every experiment scale.
	budgets := []int{max(s.Rows/600, 96), max(s.Rows/150, 384), max(s.Rows/40, 1536)}
	for _, budget := range budgets {
		capEq := budget / 32
		if capEq < 1 {
			capEq = 1
		}
		var neyErr, neyMax, eqErr, eqMax float64
		var neyRows, eqRows int
		for tr := 0; tr < s.Trials; tr++ {
			ney, err := sample.BuildStratifiedNeyman(src, sample.NeymanConfig{
				KeyColumns: []string{"ev_group"}, ValueColumn: "ev_value",
				TotalBudget: budget, Seed: s.Seed + int64(tr)*11}, "ny")
			if err != nil {
				return nil, err
			}
			eq, err := sample.BuildStratified(src, sample.StratifiedConfig{
				KeyColumns: []string{"ev_group"}, CapPerStratum: capEq,
				Seed: s.Seed + int64(tr)*11}, "eq")
			if err != nil {
				return nil, err
			}
			re := math.Abs(sumOf(ney)-truth) / truth
			neyErr += re
			neyMax = math.Max(neyMax, re)
			neyRows = ney.SampleRows
			re = math.Abs(sumOf(eq)-truth) / truth
			eqErr += re
			eqMax = math.Max(eqMax, re)
			eqRows = eq.SampleRows
		}
		n := float64(s.Trials)
		t.AddRow(itoa(int64(budget)), "neyman", f4(neyErr/n), f4(neyMax), itoa(int64(neyRows)))
		t.AddRow(itoa(int64(budget)), "equal-cap", f4(eqErr/n), f4(eqMax), itoa(int64(eqRows)))
	}
	t.AddNote("strata spreads differ by ~3 orders of magnitude (value scaled by group id squared)")
	t.AddNote("Neyman spends the budget where the variance lives; equal caps pay the quiet strata the same")
	return t, nil
}
