package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/shard"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

func init() {
	register("E21", "scatter-gather shard sweep: latency and CI width at 0/1/2/4/8 shards", runE21)
}

// E21 — scatter-gather execution against the unsharded baseline across
// shard counts: exact and sampled latency plus the realized relative CI
// half-width of the stratified composition. The single-shard row doubles
// as the overhead floor — it runs the scatter path over the base table
// itself, and must reproduce the unsharded width digit for digit.
//
// One dataset and one pinned engine seed serve the whole sweep (per-shard
// seeds derive from it), so rel_ci_width and coverage vary only with the
// shard count and are identical across trials, runs and worker counts;
// only the two latency columns are wall-clock.
func runE21(s Scale) (*Table, error) {
	const sql = "SELECT SUM(ev_value) AS s FROM events"
	trials := max(s.Trials, 3)
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: s.Seed, Rows: s.Rows, NumGroups: 16, Skew: 0.8})
	if err != nil {
		return nil, err
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	spec := core.ErrorSpec{RelError: 0.5, Confidence: 0.95}
	ctx := exec.ContextWithWorkers(context.Background(), s.Workers)
	median := func(ds []time.Duration) string {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return fmt.Sprintf("%.3f", float64(ds[len(ds)/2].Microseconds())/1e3)
	}

	t := &Table{ID: "E21", Title: "Scatter-gather shard sweep: latency and CI width vs shard count",
		Header: []string{"shards", "exact_ms", "online_ms", "rel_ci_width", "coverage"}}
	for _, n := range []int{0, 1, 2, 4, 8} {
		shards := shard.NewMap()
		if n > 0 {
			g, err := shard.Partition(ev.Table,
				shard.Key{Column: "ev_user", Kind: shard.KeyHash, Count: n}, fault.BreakerConfig{})
			if err != nil {
				return nil, err
			}
			if err := shards.Add(g); err != nil {
				return nil, err
			}
		}
		exact := &core.ExactEngine{Catalog: ev.Catalog, Shards: shards}
		online := core.NewOnlineEngine(ev.Catalog, core.OnlineConfig{
			DefaultRate: 0.1, MinTableRows: 1, Seed: s.Seed})
		online.Shards = shards

		var exactLat, onlineLat []time.Duration
		var width, coverage string
		for trial := 0; trial < trials; trial++ {
			start := time.Now()
			if _, err := exact.Execute(ctx, stmt, spec); err != nil {
				return nil, fmt.Errorf("shards=%d exact: %w", n, err)
			}
			exactLat = append(exactLat, time.Since(start))

			start = time.Now()
			res, err := online.Execute(ctx, stmt, spec)
			if err != nil {
				return nil, fmt.Errorf("shards=%d online: %w", n, err)
			}
			onlineLat = append(onlineLat, time.Since(start))
			cov := 1.0
			if sh := res.Diagnostics.Shards; sh != nil {
				cov = sh.CoverageFraction
			}
			w, c := f4(res.MaxRelHalfWidth()), f4(cov)
			if trial > 0 && (w != width || c != coverage) {
				return nil, fmt.Errorf("experiments: shards=%d trial %d: width %s coverage %s differ from %s %s under a pinned seed",
					n, trial, w, c, width, coverage)
			}
			width, coverage = w, c
		}
		t.AddRow(itoa(int64(n)), median(exactLat), median(onlineLat), width, coverage)
	}
	t.AddNote("events rows=%d trials=%d seed=%d query=%q", s.Rows, trials, s.Seed, sql)
	t.AddNote("shards=0 is the unsharded baseline; shards=1 adds only scatter overhead")
	t.AddNote("rel_ci_width is the realized relative CI half-width of the online estimate")
	t.AddNote("one dataset and one pinned engine seed across the whole sweep; widths are identical across trials (checked above)")
	return t, nil
}
