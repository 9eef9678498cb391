package shard

import (
	"context"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/sample"
)

// TestSharedStatementConcurrentPlanning is what stands where buildPlanMu
// stood: one parsed statement is planned (base catalog and shard tables),
// rendered, fingerprinted and walked from many goroutines with no lock
// while 4-shard scatters plan their legs concurrently over it. Meaningful
// under -race; the CI race lane runs it.
func TestSharedStatementConcurrentPlanning(t *testing.T) {
	ev, g := scatterFixture(t, Key{Column: "ev_user", Kind: KeyHash, Count: 4}, fault.BreakerConfig{})
	const sql = "SELECT ev_group, SUM(ev_value) AS s, COUNT(*) AS n FROM events " +
		"WHERE ev_value > 1 GROUP BY ev_group HAVING SUM(ev_value) > 0 ORDER BY ev_group"
	stmt := parse(t, sql)
	want := parse(t, sql) // a private twin, read before anything else runs
	wantText, wantFP := want.String(), want.Fingerprint().Hash
	smp := &sample.Spec{Kind: sample.KindUniformRow, Rate: 0.5, Seed: 7}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				if _, err := plan.Build(stmt, ev.Catalog); err != nil {
					t.Errorf("plan.Build: %v", err)
					return
				}
				if _, err := BuildShardQueryPlan(Query{Stmt: stmt, Sample: smp}, ev.Table); err != nil {
					t.Errorf("BuildShardQueryPlan: %v", err)
					return
				}
				if got := stmt.String(); got != wantText {
					t.Errorf("String() = %q, want %q", got, wantText)
				}
				if got := stmt.Fingerprint().Hash; got != wantFP {
					t.Errorf("Fingerprint() = %s, want %s", got, wantFP)
				}
				for slot, a := range stmt.Aggregates() {
					if a.Slot != slot {
						t.Errorf("aggregate %s: slot %d at index %d", a, a.Slot, slot)
					}
				}
				if i%4 == 0 && rep%5 == 0 {
					if _, err := g.Scatter(context.Background(), stmt, ExecOptions{Workers: 4, Sample: smp}); err != nil {
						t.Errorf("Scatter: %v", err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
}
