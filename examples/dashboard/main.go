// Dashboard: a skewed web-analytics workload where a dashboard needs
// per-group counts fast. Uniform sampling silently drops the tail groups;
// the distinct sampler — which the online engine picks automatically for
// GROUP BY queries — keeps every group alive.
package main

import (
	"context"
	"fmt"
	"log"

	aqp "repro"
	"repro/internal/workload"
)

func main() {
	// 2M events across 2000 Zipf-skewed groups: a few huge, a long tail.
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: 7, Rows: 2_000_000, NumGroups: 2000, Skew: 1.5})
	if err != nil {
		log.Fatal(err)
	}
	db := aqp.Open(ev.Catalog, aqp.WithOnlineConfig(aqp.OnlineConfig{
		DefaultRate: 0.01, MinTableRows: 10_000, DistinctKeep: 30, Seed: 1}))

	const q = "SELECT ev_group, COUNT(*) AS hits, SUM(ev_value) AS load FROM events GROUP BY ev_group"

	exact, err := db.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact:   %4d groups, %8d rows scanned, %s\n",
		exact.NumRows(), exact.Diagnostics.Counters.RowsScanned, exact.Diagnostics.Latency.Round(1000))

	// Naive uniform sampling at 0.5% — watch the tail groups disappear.
	ctx := context.Background()
	uniform, err := db.RunSQL(ctx,
		"SELECT ev_group, COUNT(*) AS hits, SUM(ev_value) AS load FROM events TABLESAMPLE BERNOULLI (0.5) GROUP BY ev_group",
		aqp.Request{Mode: aqp.ModeAsWritten})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uniform: %4d groups (%d lost)\n",
		uniform.NumRows(), exact.NumRows()-uniform.NumRows())

	// The online engine's distinct sampler keeps them all.
	approx, err := db.RunSQL(ctx, q, aqp.Request{Mode: aqp.ModeOnline, Spec: aqp.ErrorSpec{RelError: 0.1, Confidence: 0.95}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distinct:%4d groups (%d lost), %8d rows emitted, %s, guarantee=%s\n",
		approx.NumRows(), exact.NumRows()-approx.NumRows(),
		approx.Diagnostics.Counters.RowsEmitted,
		approx.Diagnostics.Latency.Round(1000), approx.Guarantee)
	for _, m := range approx.Diagnostics.Messages {
		fmt.Println("  ·", m)
	}

	// Head groups: estimates vs truth.
	fmt.Println("\nhead groups, approximate vs exact hit counts:")
	hits := approx.ColumnIndex("hits")
	for i := 0; i < 5 && i < approx.NumRows(); i++ {
		g := approx.Rows[i][0].I
		est := approx.Float(i, hits)
		var truth float64
		for j := 0; j < exact.NumRows(); j++ {
			if exact.Rows[j][0].I == g {
				truth = exact.Float(j, hits)
				break
			}
		}
		it := approx.Items[i][hits]
		fmt.Printf("  group %-4d est %-10.0f exact %-10.0f CI ±%.1f%%\n",
			g, est, truth, it.RelHalfWidth*100)
	}
}
