package experiments

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

func init() {
	register("E20", "morsel-driven parallel speedup over one worker", runE20)
}

// E20 — intra-query parallelism. The morsel-driven path splits the scan
// into block-aligned morsels, aggregates each on a worker, and merges
// partial states in morsel order, so the answer is bit-identical for any
// worker count. This experiment measures the speedup of more workers over
// one on an exact aggregate scan, and verifies that every worker count
// returns the same answer.
func runE20(s Scale) (*Table, error) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: s.Seed, Rows: s.Rows, NumGroups: 16, ValueDist: "exp"})
	if err != nil {
		return nil, err
	}
	sql := "SELECT SUM(ev_value), COUNT(*), AVG(ev_value) FROM events WHERE ev_value >= 0"

	reps := s.Trials
	if reps < 3 {
		reps = 3
	}
	build := func() (plan.Node, error) {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, err
		}
		return plan.Build(stmt, ev.Catalog)
	}
	// best-of-reps wall clock for one execution mode.
	timeIt := func(run func(plan.Node) (*exec.Result, error)) (time.Duration, *exec.Result, error) {
		var best time.Duration
		var last *exec.Result
		for r := 0; r < reps; r++ {
			p, err := build()
			if err != nil {
				return 0, nil, err
			}
			t0 := time.Now()
			res, err := run(p)
			if err != nil {
				return 0, nil, err
			}
			el := time.Since(t0)
			if best == 0 || el < best {
				best = el
			}
			last = res
		}
		return best, last, nil
	}

	type mode struct {
		name    string
		workers int
		run     func(plan.Node) (*exec.Result, error)
	}
	var modes []mode
	for _, w := range []int{1, 2, 4} {
		w := w
		modes = append(modes, mode{fmt.Sprintf("morsel-w%d", w), w,
			func(p plan.Node) (*exec.Result, error) { return exec.RunParallel(p, w) }})
	}

	t := &Table{ID: "E20", Title: "morsel-driven parallel speedup on an exact aggregate scan",
		Header: []string{"mode", "workers", "best_latency", "speedup_vs_w1", "rows_scanned", "sum"}}
	var one time.Duration
	var oneSum float64
	for i, m := range modes {
		el, res, err := timeIt(m.run)
		if err != nil {
			return nil, err
		}
		// Every worker count must return the one worker's answer, bit for bit.
		sum := res.Rows[0][0].AsFloat()
		if i == 0 {
			one, oneSum = el, sum
		} else if sum != oneSum {
			return nil, fmt.Errorf("experiments: mode %s answer %v != one worker's %v", m.name, sum, oneSum)
		}
		t.AddRow(m.name, itoa(int64(m.workers)), el.Round(time.Microsecond).String(),
			f2(float64(one)/float64(el)), itoa(res.Counters.RowsScanned), f2(sum))
	}
	t.AddNote("morsel workers aggregate block-aligned morsels and merge partials in morsel order")
	t.AddNote("answers are bit-identical across worker counts (checked above)")
	t.AddNote("speedup is over one worker; past the host's core count more workers add nothing")
	return t, nil
}
