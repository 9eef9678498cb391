package core

import (
	"testing"

	"repro/internal/workload"
)

func TestEstimateStratifiedRows(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: 1, Rows: 10000, NumGroups: 10})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := EstimateStratifiedRows(ev.Table, []string{"ev_group"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	// 10 groups, each ~1000 rows, cap 100 -> exactly 1000.
	if rows != 1000 {
		t.Errorf("rows = %d, want 1000", rows)
	}
	// Cap larger than every group keeps everything.
	rows, err = EstimateStratifiedRows(ev.Table, []string{"ev_group"}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if rows != 10000 {
		t.Errorf("rows = %d, want 10000", rows)
	}
	if _, err := EstimateStratifiedRows(ev.Table, []string{"missing"}, 10); err == nil {
		t.Error("unknown column must error")
	}
}

func TestPlanSampleBudget(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: 2, Rows: 20000, NumGroups: 16})
	if err != nil {
		t.Fatal(err)
	}
	cands := []QCSCandidate{
		{QCS: []string{"ev_group"}, Weight: 0.5},
		{QCS: []string{"ev_flag"}, Weight: 0.5},
	}
	// Budget for only one (ev_flag: 2 strata × 64 = 128 rows; ev_group:
	// 16 × 64 = 1024 rows, over budget after the first pick).
	plan, err := PlanSampleBudget(ev.Table, cands, 64, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 1 {
		t.Fatalf("plan size = %d (%+v)", len(plan), plan)
	}
	// ev_flag: 2 strata * 64 = 128 rows for weight 0.5 — the best ratio.
	if plan[0].QCS[0] != "ev_flag" {
		t.Errorf("greedy should pick ev_flag first, got %v", plan[0].QCS)
	}
	// Ample budget covers everything.
	plan, err = PlanSampleBudget(ev.Table, cands, 64, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var covered float64
	for _, p := range plan {
		covered += p.Covers
	}
	if covered < 0.99 {
		t.Errorf("covered = %v", covered)
	}
	// Zero budget: nothing.
	plan, err = PlanSampleBudget(ev.Table, cands, 64, 0)
	if err != nil || len(plan) != 0 {
		t.Errorf("zero budget plan = %v, %v", plan, err)
	}
	if _, err := PlanSampleBudget(ev.Table, cands, 0, 100); err == nil {
		t.Error("zero cap must error")
	}
}

func TestPlanSubsumption(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: 3, Rows: 20000, NumGroups: 8})
	if err != nil {
		t.Fatal(err)
	}
	cands := []QCSCandidate{
		{QCS: []string{"ev_group"}, Weight: 0.3},
		{QCS: []string{"ev_flag"}, Weight: 0.3},
		{QCS: []string{"ev_group", "ev_flag"}, Weight: 0.4},
	}
	plan, err := PlanSampleBudget(ev.Table, cands, 128, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy (by weight-per-row) may take the cheap ev_flag sample first,
	// then the compound set that subsumes the rest — but never needs all
	// three, and must reach full coverage.
	if len(plan) > 2 {
		t.Fatalf("plan should not materialize subsumed samples: %+v", plan)
	}
	var covered float64
	hasCompound := false
	for _, p := range plan {
		covered += p.Covers
		if len(p.QCS) == 2 {
			hasCompound = true
		}
	}
	if covered < 0.99 {
		t.Errorf("covered = %v", covered)
	}
	if !hasCompound {
		t.Errorf("compound QCS should be selected: %+v", plan)
	}
}
