// Joins: why sampling both sides of a join needs the universe sampler.
// Uniformly sampling both inputs at rate p keeps only ~p² of the join
// output; universe sampling (hashing the join key identically on both
// sides) keeps an aligned p-fraction.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	aqp "repro"
	"repro/internal/workload"
)

func main() {
	star, err := workload.GenerateStar(workload.Config{Seed: 3, LineitemRows: 1_000_000})
	if err != nil {
		log.Fatal(err)
	}
	db := aqp.Open(star.Catalog, aqp.WithOnlineConfig(aqp.OnlineConfig{
		DefaultRate: 0.02, MinTableRows: 10_000, DistinctKeep: 30, Seed: 1}))

	const base = "SELECT COUNT(*) AS pairs, SUM(l_extendedprice) AS revenue FROM lineitem%s JOIN orders%s ON l_orderkey = o_orderkey"

	exact, err := db.Query(fmt.Sprintf(base, "", ""))
	if err != nil {
		log.Fatal(err)
	}
	truePairs := exact.Float(0, 0)
	trueRev := exact.Float(0, 1)
	fmt.Printf("exact:          pairs=%-10.0f revenue=%-14.0f (%s)\n",
		truePairs, trueRev, exact.Diagnostics.Latency.Round(1000))

	report := func(label string, res *aqp.Result) {
		pairs := res.Float(0, 0)
		rev := res.Float(0, 1)
		ci := "n/a"
		if it := res.Items[0][0]; it.HasCI {
			ci = fmt.Sprintf("±%.1f%%", it.RelHalfWidth*100)
		}
		fmt.Printf("%-15s pairs=%-10.0f (err %5.1f%%, CI %-7s)  revenue=%-14.0f (err %5.1f%%)  rows_emitted=%d\n",
			label, pairs, 100*math.Abs(pairs-truePairs)/truePairs, ci,
			rev, 100*math.Abs(rev-trueRev)/trueRev,
			res.Diagnostics.Counters.RowsEmitted)
	}

	// Uniform 1% on both sides: the join starves (~0.01% of pairs kept).
	ctx, asWritten := context.Background(), aqp.Request{Mode: aqp.ModeAsWritten}
	uniform, err := db.RunSQL(ctx, fmt.Sprintf(base,
		" TABLESAMPLE BERNOULLI (1)", " TABLESAMPLE BERNOULLI (1)"), asWritten)
	if err != nil {
		log.Fatal(err)
	}
	report("uniform-both:", uniform)

	// Universe 1% on both sides, same key domain: aligned samples.
	universe, err := db.RunSQL(ctx, fmt.Sprintf(base,
		" TABLESAMPLE UNIVERSE (1) ON (l_orderkey)", " TABLESAMPLE UNIVERSE (1) ON (o_orderkey)"), asWritten)
	if err != nil {
		log.Fatal(err)
	}
	report("universe-both:", universe)

	// The online engine places universe samplers automatically.
	auto, err := db.RunSQL(ctx, fmt.Sprintf(base, "", ""),
		aqp.Request{Mode: aqp.ModeOnline, Spec: aqp.ErrorSpec{RelError: 0.1, Confidence: 0.95}})
	if err != nil {
		log.Fatal(err)
	}
	report("online (auto):", auto)
	for _, m := range auto.Diagnostics.Messages {
		fmt.Println("  ·", m)
	}
}
