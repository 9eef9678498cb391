package audit

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/storage"
)

// fakeExec answers every ground-truth query with a fixed scalar.
type fakeExec struct {
	mu    sync.Mutex
	truth float64
	rows  int // TableRows reported in truth lineage
	calls int
	err   error
}

func (f *fakeExec) QueryContext(_ context.Context, _ string) (*core.Result, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.err != nil {
		return nil, f.err
	}
	val := storage.Float64(f.truth)
	res := &core.Result{
		Columns:   []string{"sum_ev_value"},
		Rows:      [][]storage.Value{{val}},
		Technique: core.TechniqueExact,
		Guarantee: core.GuaranteeExact,
	}
	res.Items = [][]core.ItemResult{{{Name: "sum_ev_value", Value: val, IsAggregate: true}}}
	res.Diagnostics.Lineage = core.SampleLineage{Table: "events", TableRows: f.rows, BuildRows: f.rows}
	return res, nil
}

// claimed builds a served approximate result: one SUM item with a CI.
func claimed(est, lo, hi float64, buildRows int) *core.Result {
	val := storage.Float64(est)
	r := &core.Result{
		Columns:   []string{"sum_ev_value"},
		Rows:      [][]storage.Value{{val}},
		Technique: core.TechniqueOnline,
		Guarantee: core.GuaranteeAPosteriori,
	}
	r.Items = [][]core.ItemResult{{{
		Name: "sum_ev_value", Value: val, IsAggregate: true, HasCI: true,
		CI: stats.Interval{Lo: lo, Hi: hi, Confidence: 0.95},
	}}}
	r.Diagnostics.Lineage = core.SampleLineage{
		Table: "events", TableRows: buildRows, BuildRows: buildRows,
	}
	return r
}

// distinctSQL yields parseable, canonically distinct audit candidates.
func distinctSQL(i int) string {
	return fmt.Sprintf("SELECT SUM(ev_value) FROM events WHERE ev_ts >= %d AND ev_ts < %d",
		i*10, i*10+10)
}

// recorder collects auditor events.
type recorder struct {
	mu     sync.Mutex
	events []Event
}

func (r *recorder) hook() func(Event) {
	return func(ev Event) {
		r.mu.Lock()
		r.events = append(r.events, ev)
		r.mu.Unlock()
	}
}

func (r *recorder) count(kind string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ev := range r.events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

func drain(t *testing.T, a *Auditor) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.Drain(ctx); err != nil {
		t.Fatalf("drain: %v (backlog %d)", err, a.Backlog())
	}
}

func TestOfferEligibility(t *testing.T) {
	exec := &fakeExec{truth: 100, rows: 1000}
	a := New(exec, nil, Config{Fraction: 1})
	defer a.Close()

	a.Offer(nil, "SELECT SUM(ev_value) FROM events")
	exact := claimed(100, 0, 0, 1000)
	exact.Guarantee = core.GuaranteeExact
	a.Offer(exact, "SELECT SUM(ev_value) FROM events")
	noCI := claimed(100, 0, 0, 1000)
	noCI.Items[0][0].HasCI = false
	a.Offer(noCI, "SELECT SUM(ev_value) FROM events")

	drain(t, a)
	if r := a.Report(); r.Offered != 0 || r.Audited != 0 {
		t.Fatalf("ineligible results were considered: %+v", r)
	}

	// Fraction 0 disables even eligible results.
	off := New(exec, nil, Config{Fraction: 0})
	defer off.Close()
	off.Offer(claimed(100, 90, 110, 1000), "SELECT SUM(ev_value) FROM events")
	if r := off.Report(); r.Offered != 0 || r.Enabled {
		t.Fatalf("disabled auditor accepted work: %+v", r)
	}
}

func TestCoverageAndDedup(t *testing.T) {
	exec := &fakeExec{truth: 100, rows: 1000}
	rec := &recorder{}
	a := New(exec, nil, Config{Fraction: 1, OnEvent: rec.hook()})
	defer a.Close()

	const n = 20
	for i := 0; i < n; i++ {
		a.Offer(claimed(98, 90, 110, 1000), distinctSQL(i))
	}
	// Re-offer the same statements: all must dedup, not re-audit.
	for i := 0; i < n; i++ {
		a.Offer(claimed(98, 90, 110, 1000), distinctSQL(i))
	}
	drain(t, a)

	r := a.Report()
	if r.Audited != n || r.Deduped != n || r.Sampled != n {
		t.Fatalf("flow counters: %+v", r)
	}
	if len(r.Techniques) != 1 {
		t.Fatalf("want one (technique, aggregate) estimator, got %+v", r.Techniques)
	}
	tc := r.Techniques[0]
	if tc.Technique != string(core.TechniqueOnline) || tc.Aggregate != "SUM" {
		t.Fatalf("estimator key: %+v", tc)
	}
	if tc.Audits != n || tc.Covered != n || tc.Coverage != 1 {
		t.Fatalf("coverage: %+v", tc)
	}
	if !tc.BudgetOK {
		t.Fatalf("full coverage must not burn budget: %+v", tc)
	}
	if tc.RelErrMax <= 0 || tc.RelErrMax > 0.05 {
		t.Fatalf("rel err of 98 vs 100 should be 0.02, got %+v", tc)
	}
	if got := rec.count(EventCovered); got != n {
		t.Fatalf("covered events: %d", got)
	}
	if got := rec.count(EventDeduped); got != n {
		t.Fatalf("deduped events: %d", got)
	}
	if len(r.LastTraces) == 0 {
		t.Fatal("ground-truth runs should leave trace profiles")
	}
}

func TestBudgetViolationOnMisses(t *testing.T) {
	exec := &fakeExec{truth: 100, rows: 1000}
	rec := &recorder{}
	a := New(exec, nil, Config{Fraction: 1, OnEvent: rec.hook()})
	defer a.Close()

	// More audits than budgetMinAudits, so the budget verdict is issued.
	const n = budgetMinAudits + 10
	for i := 0; i < n; i++ {
		// Claimed CI [200, 210] never contains the truth 100.
		a.Offer(claimed(205, 200, 210, 1000), distinctSQL(i))
	}
	drain(t, a)

	r := a.Report()
	tc := r.Techniques[0]
	if tc.Covered != 0 || tc.Coverage != 0 {
		t.Fatalf("all audits must miss: %+v", tc)
	}
	if tc.BudgetOK {
		t.Fatalf("0%% coverage over %d audits must burn the budget: %+v", n, tc)
	}
	if r.Violations == 0 || rec.count(EventViolation) == 0 {
		t.Fatalf("no violation recorded: %+v", r)
	}
	if tc.RelErrP50 < 1 {
		t.Fatalf("rel error of 205 vs 100 should exceed 1: %+v", tc)
	}
}

func TestStalenessAttribution(t *testing.T) {
	// Truth table has grown to 1500 rows; claims were computed from a
	// 1000-row sample build. Misses must be attributed to drift.
	exec := &fakeExec{truth: 100, rows: 1500}
	rec := &recorder{}
	a := New(exec, nil, Config{Fraction: 1, OnEvent: rec.hook()})
	defer a.Close()

	for i := 0; i < 5; i++ {
		a.Offer(claimed(205, 200, 210, 1000), distinctSQL(i))
	}
	drain(t, a)

	r := a.Report()
	if len(r.Tables) != 1 || r.Tables[0].Table != "events" {
		t.Fatalf("tables: %+v", r.Tables)
	}
	tb := r.Tables[0]
	if !tb.Stale || tb.StaleMisses != 5 || tb.FreshMisses != 0 {
		t.Fatalf("staleness: %+v", tb)
	}
	if tb.MaxRowsAppended != 500 {
		t.Fatalf("appended rows: %+v", tb)
	}
	if tb.Hint == "" {
		t.Fatal("stale table should carry a rebuild hint")
	}
	if rec.count(EventStale) != 1 {
		t.Fatalf("stale events: %d", rec.count(EventStale))
	}

	// Fresh misses (no appended rows) must NOT flag staleness.
	exec2 := &fakeExec{truth: 100, rows: 1000}
	b := New(exec2, nil, Config{Fraction: 1})
	defer b.Close()
	for i := 0; i < 5; i++ {
		b.Offer(claimed(205, 200, 210, 1000), distinctSQL(i))
	}
	drain(t, b)
	if rb := b.Report(); len(rb.Tables) != 1 || rb.Tables[0].Stale {
		t.Fatalf("fresh misses flagged stale: %+v", rb.Tables)
	}
}

// blockGate withholds capacity until opened.
type blockGate struct {
	mu   sync.Mutex
	open bool
}

func (g *blockGate) TryAcquireIdle() (func(), bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.open {
		return nil, false
	}
	return func() {}, true
}

func (g *blockGate) unlock() {
	g.mu.Lock()
	g.open = true
	g.mu.Unlock()
}

func TestQueueDropsOldestUnderBackpressure(t *testing.T) {
	exec := &fakeExec{truth: 100, rows: 1000}
	gate := &blockGate{}
	rec := &recorder{}
	a := New(exec, gate, Config{Fraction: 1, QueueCap: 4, OnEvent: rec.hook()})
	defer a.Close()

	const offered = 12
	for i := 0; i < offered; i++ {
		a.Offer(claimed(98, 90, 110, 1000), distinctSQL(i))
	}
	// The worker can hold at most one in-flight job; the queue holds 4.
	if bl := a.Backlog(); bl > 5 {
		t.Fatalf("backlog %d exceeds cap+in-flight", bl)
	}
	gate.unlock()
	drain(t, a)

	r := a.Report()
	if r.Dropped == 0 {
		t.Fatalf("expected drops under backpressure: %+v", r)
	}
	if r.Audited+r.Dropped != offered {
		t.Fatalf("flow conservation: audited %d + dropped %d != %d", r.Audited, r.Dropped, offered)
	}
	if rec.count(EventDropped) != int(r.Dropped) {
		t.Fatalf("dropped events %d vs counter %d", rec.count(EventDropped), r.Dropped)
	}
}

func TestDecideIsDeterministicAndUnbiased(t *testing.T) {
	for i := uint64(0); i < 100; i++ {
		if decide(7, "online", i, 0.5) != decide(7, "online", i, 0.5) {
			t.Fatal("decide is not deterministic")
		}
	}
	n := 0
	const trials = 20000
	for i := uint64(0); i < trials; i++ {
		if decide(42, "offline", i, 0.3) {
			n++
		}
	}
	rate := float64(n) / trials
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("empirical sampling rate %.3f far from 0.3", rate)
	}
	if !decide(1, "x", 0, 1.0) {
		t.Fatal("fraction 1 must always audit")
	}
}

func TestGroundTruthErrorCounted(t *testing.T) {
	exec := &fakeExec{truth: 100, rows: 1000, err: fmt.Errorf("boom")}
	rec := &recorder{}
	a := New(exec, nil, Config{Fraction: 1, OnEvent: rec.hook()})
	defer a.Close()
	a.Offer(claimed(98, 90, 110, 1000), distinctSQL(0))
	drain(t, a)
	r := a.Report()
	if r.Errors != 1 || r.Audited != 0 {
		t.Fatalf("error accounting: %+v", r)
	}
	if rec.count(EventError) != 1 {
		t.Fatal("missing error event")
	}
}

func TestGroupKeyMatchingAndUnmatched(t *testing.T) {
	// Claimed result has two groups; truth has only one of them (plus an
	// extra). Rows are matched by group key, order-independently.
	ga, gb, gc := storage.Str("a"), storage.Str("b"), storage.Str("c")
	mk := func(g storage.Value, est float64, hasRow bool) []core.ItemResult {
		_ = hasRow
		return []core.ItemResult{
			{Name: "ev_group", Value: g},
			{Name: "sum_ev_value", Value: storage.Float64(est), IsAggregate: true, HasCI: true,
				CI: stats.Interval{Lo: est - 10, Hi: est + 10, Confidence: 0.95}},
		}
	}
	cl := &core.Result{
		Columns:   []string{"ev_group", "sum_ev_value"},
		Rows:      [][]storage.Value{{ga, storage.Float64(50)}, {gb, storage.Float64(70)}},
		Technique: core.TechniqueOffline,
		Guarantee: core.GuaranteeAPosteriori,
	}
	cl.Items = [][]core.ItemResult{mk(ga, 50, true), mk(gb, 70, true)}
	cl.Diagnostics.Lineage = core.SampleLineage{Table: "events", TableRows: 1000, BuildRows: 1000}

	truth := &core.Result{
		Columns: []string{"ev_group", "sum_ev_value"},
		// Reversed order plus a group the claim never saw.
		Rows: [][]storage.Value{{gc, storage.Float64(5)}, {ga, storage.Float64(55)}},
	}
	truth.Diagnostics.Lineage = core.SampleLineage{Table: "events", TableRows: 1000}

	exec := &truthExec{res: truth}
	a := New(exec, nil, Config{Fraction: 1})
	defer a.Close()
	a.Offer(cl, "SELECT ev_group, SUM(ev_value) FROM events GROUP BY ev_group")
	drain(t, a)

	r := a.Report()
	if r.Audited != 1 {
		t.Fatalf("audited: %+v", r)
	}
	// Group a matched (55 in [40,60] -> covered); groups b and c unmatched.
	if r.Unmatched != 2 {
		t.Fatalf("unmatched groups: %+v", r)
	}
	tc := r.Techniques[0]
	if tc.Audits != 1 || tc.Covered != 1 {
		t.Fatalf("matched-group coverage: %+v", tc)
	}
}

// truthExec returns one canned result.
type truthExec struct{ res *core.Result }

func (e *truthExec) QueryContext(context.Context, string) (*core.Result, error) {
	return e.res, nil
}

func TestRelError(t *testing.T) {
	cases := []struct{ est, truth, want float64 }{
		{100, 100, 0}, {90, 100, 0.1}, {0, 0, 0}, {5, 0, 1}, {110, 100, 0.1},
	}
	for _, c := range cases {
		if got := relError(c.est, c.truth); !close2(got, c.want) {
			t.Fatalf("relError(%v, %v) = %v, want %v", c.est, c.truth, got, c.want)
		}
	}
}

func close2(a, b float64) bool { d := a - b; return d < 1e-9 && d > -1e-9 }

func TestShardDegradedAttribution(t *testing.T) {
	exec := &fakeExec{truth: 100, rows: 1000}
	rec := &recorder{}
	a := New(exec, nil, Config{Fraction: 1, OnEvent: rec.hook()})
	defer a.Close()

	// A covered answer and a missed answer, both served off a shard group
	// that lost shard 2, plus one healthy miss for contrast.
	degradedHit := claimed(100, 90, 110, 1000)
	degradedHit.Diagnostics.Shards = &core.ShardExecSummary{
		Table: "events", Count: 4, Degraded: []int{2}, Extrapolated: true, CoverageFraction: 0.75,
	}
	degradedMiss := claimed(10, 5, 15, 1000)
	degradedMiss.Diagnostics.Shards = &core.ShardExecSummary{
		Table: "events", Count: 4, Degraded: []int{2}, Extrapolated: true, CoverageFraction: 0.75,
	}
	healthyMiss := claimed(10, 5, 15, 1000)

	a.Offer(degradedHit, distinctSQL(0))
	a.Offer(degradedMiss, distinctSQL(1))
	a.Offer(healthyMiss, distinctSQL(2))
	drain(t, a)

	rep := a.Report()
	if rep.ShardDegradedAudits != 2 {
		t.Fatalf("ShardDegradedAudits = %d, want 2", rep.ShardDegradedAudits)
	}
	if rep.ShardDegradedMisses != 1 {
		t.Fatalf("ShardDegradedMisses = %d, want 1", rep.ShardDegradedMisses)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var tagged, untagged int
	for _, ev := range rec.events {
		if ev.Kind != EventCovered && ev.Kind != EventMissed {
			continue
		}
		if len(ev.DegradedShards) > 0 {
			if ev.DegradedShards[0] != 2 {
				t.Fatalf("DegradedShards = %v, want [2]", ev.DegradedShards)
			}
			tagged++
		} else {
			untagged++
		}
	}
	if tagged != 2 || untagged != 1 {
		t.Fatalf("tagged %d untagged %d, want 2/1", tagged, untagged)
	}
}

// TestDrainWaitsForSinks holds Drain to its word: an audit counts in the
// backlog until its last event has reached the sink, on the answer path
// and on the ground-truth error path alike.
func TestDrainWaitsForSinks(t *testing.T) {
	for _, fail := range []bool{false, true} {
		exec := &fakeExec{truth: 100, rows: 1000}
		if fail {
			exec.err = fmt.Errorf("boom")
		}
		entered, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		a := New(exec, nil, Config{Fraction: 1, OnEvent: func(Event) {
			once.Do(func() { close(entered); <-release })
		}})
		a.Offer(claimed(98, 90, 110, 1000), distinctSQL(0))
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("fail=%t: no audit event", fail)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		if err := a.Drain(ctx); err == nil {
			t.Errorf("fail=%t: Drain returned while the sink still held the audit's first event", fail)
		}
		cancel()
		close(release)
		drain(t, a)
		a.Close()
	}
}
