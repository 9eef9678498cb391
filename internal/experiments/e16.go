package experiments

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/sample"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

func init() {
	register("E16", "sample reuse (the kept-row memo): amortizing the online draw", runE16)
}

// E16 — sample reuse. Claim (the online/offline hybrid the paper points
// to, à la Taster/Idea): reusing the sample a query-time engine draws
// amortizes its cost over a session. The online engine's reuse is the
// kept-row memo: the uniform coin's decisions, remembered per (seed, rate)
// as a bitmap. The same session runs with the memo emptied before every
// query and with it kept; both read the same kept rows, so what reuse buys
// is the hash over the table, not rows. An append then grows the bitmap
// over the new rows instead of rebuilding anything.
func runE16(s Scale) (*Table, error) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: s.Seed, Rows: s.Rows, NumGroups: 16})
	if err != nil {
		return nil, err
	}
	queries := []string{
		"SELECT SUM(ev_value) AS a FROM events",
		"SELECT AVG(ev_value) AS b, COUNT(*) AS n FROM events",
		"SELECT SUM(ev_value) AS c FROM events WHERE ev_ts > 1000",
		"SELECT COUNT(*) AS d FROM events WHERE ev_flag = true",
	}
	cfg := core.DefaultOnlineConfig()
	cfg.MinTableRows = 1000
	cfg.DefaultRate = 0.02
	e := core.NewOnlineEngine(ev.Catalog, cfg)

	t := &Table{ID: "E16", Title: "sample reuse across a 12-query session (3 reps x 4 queries), then one query after an append",
		Header: []string{"session", "rows_scanned", "total_latency", "memo_hits", "memo_misses", "memo_grows"}}
	// session runs qs reps times, emptying the memo before each query when
	// forget is set, and adds its row.
	session := func(name string, qs []string, reps int, forget bool) error {
		var rows int64
		var total time.Duration
		before := sample.KeptMemoStats()
		for rep := 0; rep < reps; rep++ {
			for _, q := range qs {
				stmt, err := sqlparse.Parse(q)
				if err != nil {
					return err
				}
				if forget {
					sample.ForgetKept()
				}
				t0 := time.Now()
				res, err := e.Execute(context.Background(), stmt, core.ErrorSpec{RelError: 0.2, Confidence: 0.95})
				if err != nil {
					return err
				}
				total += time.Since(t0)
				rows += res.Diagnostics.Counters.RowsScanned
			}
		}
		after := sample.KeptMemoStats()
		t.AddRow(name, itoa(rows), total.Round(time.Millisecond).String(), itoa(after.Hits-before.Hits),
			itoa(after.Misses-before.Misses), itoa(after.Grows-before.Grows))
		return nil
	}
	if err := session("memo emptied before every query", queries, 3, true); err != nil {
		return nil, err
	}
	sample.ForgetKept()
	if err := session("memo kept", queries, 3, false); err != nil {
		return nil, err
	}
	if err := ev.AppendShifted(s.Rows/20, 1, 77); err != nil {
		return nil, err
	}
	if err := session("memo kept, after a 5% append", queries[:1], 1, false); err != nil {
		return nil, err
	}
	t.AddNote("both sessions read the same kept rows; the emptied memo pays a hash per table row on every query, the kept one once")
	t.AddNote("after the append the memo decides only the new rows (one grow): no copy to rebuild, no freshness guard to keep")
	return t, nil
}
