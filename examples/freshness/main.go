// Freshness: the maintenance liability of offline samples. An offline
// sample certified for a 10% error answers instantly — until the data
// moves underneath it. This example builds samples, serves from them,
// drifts the table, shows the silent bias of stale serving, and pays the
// rebuild bill.
package main

import (
	"context"
	"fmt"
	"log"

	aqp "repro"
	"repro/internal/core"
	"repro/internal/workload"
)

func main() {
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: 5, Rows: 1_000_000, NumGroups: 50, Skew: 1.1})
	if err != nil {
		log.Fatal(err)
	}
	offCfg := core.DefaultOfflineConfig()
	offCfg.Caps = []int{1024, 4096}
	offCfg.UniformRates = nil
	offCfg.StalePolicy = core.StaleServe // what a lazy deployment does
	db := aqp.Open(ev.Catalog, aqp.WithOfflineConfig(offCfg))

	const q = "SELECT ev_group, SUM(ev_value) AS total FROM events GROUP BY ev_group"
	spec := aqp.ErrorSpec{RelError: 0.15, Confidence: 0.95}

	// Precompute + profile (the offline stage).
	if err := db.BuildOfflineSamples("events", [][]string{{"ev_group"}}); err != nil {
		log.Fatal(err)
	}
	if err := db.ProfileOffline(q); err != nil {
		log.Fatal(err)
	}
	m := db.OfflineEngine().MaintenanceStats()
	fmt.Printf("precompute: %d samples, %d rows scanned\n", m.SamplesBuilt, m.RowsScanned)

	run := func(label string) {
		res, err := db.RunSQL(context.Background(), q, aqp.Request{Mode: aqp.ModeOffline, Spec: spec})
		if err != nil {
			log.Fatal(err)
		}
		exact, err := db.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		worst := 0.0
		ti := res.ColumnIndex("total")
		for i := 0; i < res.NumRows() && i < exact.NumRows(); i++ {
			e := exact.Float(i, ti)
			if e == 0 {
				continue
			}
			re := (res.Float(i, ti) - e) / e
			if re < 0 {
				re = -re
			}
			if re > worst {
				worst = re
			}
		}
		fmt.Printf("%-22s guarantee=%-12s stale=%-5v worst_group_err=%5.1f%%  latency=%s\n",
			label, res.Guarantee, res.Diagnostics.Stale, worst*100,
			res.Diagnostics.Latency.Round(1000))
	}

	run("fresh:")

	// The data drifts: 20% more rows with 8x larger values.
	if err := ev.AppendShifted(200_000, 8, 99); err != nil {
		log.Fatal(err)
	}
	run("after drift (stale):")

	// Pay the maintenance bill.
	before := db.OfflineEngine().MaintenanceStats().RowsScanned
	if err := db.RebuildOfflineSamples("events"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rebuild scanned %d rows\n", db.OfflineEngine().MaintenanceStats().RowsScanned-before)
	run("after rebuild:")
}
