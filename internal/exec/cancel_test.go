package exec

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/storage"
)

// TestChaosCancelMidMorsel cancels the context while a morsel-parallel
// scan is in flight — the scan of a table, and a join whose build side is
// as large, so the cancel lands in the build scan too — and asserts the
// contract: RunParallelContext returns context.Canceled (not a partial
// result), and every worker goroutine has exited by the time it returns —
// the final goroutine count settles back to the pre-scan baseline, so
// repeated cancelled queries cannot accrete leaked workers.
func TestChaosCancelMidMorsel(t *testing.T) {
	t.Cleanup(fault.Uninstall)
	cat := parallelCatalog(t, 200000)
	dim := storage.NewTableWithBlockSize("dim", storage.Schema{{Name: "dk", Type: storage.TypeInt64}}, 256)
	keys := make([][]storage.Value, 200000)
	for i := range keys {
		keys[i] = []storage.Value{storage.Int64(int64(i))}
	}
	if err := dim.AppendRows(keys); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(dim); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT g, SUM(v), COUNT(*) FROM ev GROUP BY g ORDER BY g",
		"SELECT g, SUM(v), COUNT(*) FROM ev JOIN dim ON k = dk GROUP BY g ORDER BY g",
	} {
		cancelMidMorsel(t, buildPlan(t, cat, sql))
	}
}

func cancelMidMorsel(t *testing.T, p plan.Node) {

	// Slow each morsel down deterministically so the scan is reliably
	// still running when the cancel lands: ~25 morsels × 1ms across 4
	// workers keeps the pipeline busy for several milliseconds.
	fault.Install(fault.Schedule{Seed: 11, Rules: []fault.Rule{
		{Point: "exec.morsel", Kind: fault.KindLatency, P: 1, Latency: time.Millisecond},
	}})

	baseline := runtime.NumGoroutine()
	cancelled := 0
	for attempt := 0; attempt < 20; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(2*time.Millisecond, cancel)
		res, err := RunParallelContext(ctx, p, 4)
		timer.Stop()
		cancel()
		switch {
		case err == nil:
			// The scan outran the cancel; fine, try again.
			if res == nil {
				t.Fatal("nil result with nil error")
			}
		case errors.Is(err, context.Canceled):
			cancelled++
		default:
			t.Fatalf("attempt %d: error = %v, want context.Canceled", attempt, err)
		}
	}
	if cancelled == 0 {
		t.Fatal("cancel never observed mid-scan across 20 attempts")
	}

	// Workers join before RunParallelContext returns, so the goroutine
	// count must settle back to baseline (small slack for runtime and
	// timer goroutines winding down).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after %d cancelled scans: %d goroutines, baseline %d\n%s",
				cancelled, runtime.NumGoroutine(), baseline, buf[:n])
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
