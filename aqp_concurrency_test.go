package aqp_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	aqp "repro"
	"repro/internal/fault"
)

// TestConcurrentQueriesWithWriter runs mixed exact, advisor-routed,
// online, and OLA queries from many goroutines against one DB while a
// writer appends rows — the embedded-library analogue of the aqpd
// stress test. Under -race this verifies snapshot isolation of scans
// and the engines' internal locking.
func TestConcurrentQueriesWithWriter(t *testing.T) {
	db := aqp.New()
	tbl, err := db.CreateTable("t", aqp.Schema{
		{Name: "id", Type: aqp.TypeInt64},
		{Name: "x", Type: aqp.TypeFloat64},
		{Name: "g", Type: aqp.TypeString},
	})
	if err != nil {
		t.Fatal(err)
	}
	const seedRows = 50000
	batch := make([][]aqp.Value, 0, 8192)
	for i := 0; i < seedRows; i++ {
		batch = append(batch, []aqp.Value{
			aqp.Int64(int64(i)),
			aqp.Float64(float64(i % 1000)),
			aqp.Str(fmt.Sprintf("g%d", i%4)),
		})
		if len(batch) == cap(batch) {
			if err := tbl.AppendRows(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := tbl.AppendRows(batch); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildSynopsis("t", "x"); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildOfflineSamples("t", [][]string{{"g"}}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writerErr atomic.Value
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			err := tbl.AppendRow(
				aqp.Int64(int64(seedRows+i)),
				aqp.Float64(float64(i%1000)),
				aqp.Str(fmt.Sprintf("g%d", i%4)),
			)
			if err != nil {
				writerErr.Store(err)
				return
			}
		}
	}()

	spec := aqp.ErrorSpec{RelError: 0.05, Confidence: 0.95}
	workers := []func(context.Context) error{
		func(ctx context.Context) error {
			res, err := db.QueryContext(ctx, "SELECT COUNT(*), SUM(x) FROM t")
			if err != nil {
				return err
			}
			// A snapshot is internally consistent: COUNT must be at
			// least the seeded prefix, SUM nonnegative.
			if res.Float(0, 0) < seedRows {
				return fmt.Errorf("COUNT(*) = %v < seeded %d", res.Float(0, 0), seedRows)
			}
			return nil
		},
		func(ctx context.Context) error {
			_, err := db.RunSQL(ctx, "SELECT SUM(x) FROM t WITH ERROR 5% CONFIDENCE 95%", aqp.Request{})
			return err
		},
		func(ctx context.Context) error {
			_, err := db.QueryOnlineContext(ctx, "SELECT AVG(x) FROM t GROUP BY g", spec)
			return err
		},
		func(ctx context.Context) error {
			res, err := db.QueryOLAContext(ctx, "SELECT AVG(x) FROM t", spec)
			if err != nil {
				return err
			}
			if len(res.Items) == 0 || !res.Items[0][0].HasCI {
				return errors.New("ola answer lacks CI")
			}
			return nil
		},
		func(ctx context.Context) error {
			_, err := db.QueryOfflineContext(ctx, "SELECT SUM(x) FROM t", spec)
			return err
		},
		func(ctx context.Context) error {
			_, err := db.Advise("SELECT COUNT(*) FROM t WHERE x > 500 WITH ERROR 5%")
			return err
		},
	}

	const goroutines = 16
	const iters = 6
	errc := make(chan error, goroutines*iters)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				if err := workers[(g+i)%len(workers)](ctx); err != nil {
					errc <- fmt.Errorf("goroutine %d iter %d: %w", g, i, err)
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	writerWG.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if err := writerErr.Load(); err != nil {
		t.Fatalf("writer failed: %v", err)
	}
}

// TestQueryContextDeadline checks the two deadline behaviors side by
// side at the library level: exact fails with ctx.Err, OLA degrades to
// its best partial estimate.
func TestQueryContextDeadline(t *testing.T) {
	db := aqp.New(aqp.WithOLAConfig(aqp.OLAConfig{
		ChunkRows: 1024, MaxFraction: 1, StopWhenSpecMet: false, Seed: 3, MaxBuildRows: 1 << 20,
	}))
	tbl, err := db.CreateTable("big", aqp.Schema{{Name: "x", Type: aqp.TypeFloat64}})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]aqp.Value, 0, 8192)
	for i := 0; i < 1<<20; i++ {
		rows = append(rows, []aqp.Value{aqp.Float64(float64(i % 100))})
		if len(rows) == cap(rows) {
			if err := tbl.AppendRows(rows); err != nil {
				t.Fatal(err)
			}
			rows = rows[:0]
		}
	}
	if err := tbl.AppendRows(rows); err != nil {
		t.Fatal(err)
	}

	// Slow every morsel so the scan cannot finish inside its 1ms budget on
	// any machine: the deadline expires while the workers are mid-scan.
	fault.Install(fault.Schedule{Seed: 3, Rules: []fault.Rule{
		{Point: "exec.morsel", Kind: fault.KindLatency, P: 1, Latency: 5 * time.Millisecond},
	}})
	t.Cleanup(fault.Uninstall)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := db.QueryContext(ctx, "SELECT SUM(x) FROM big"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("exact err = %v, want DeadlineExceeded", err)
	}
	fault.Uninstall()

	ctx2, cancel2 := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel2()
	res, err := db.QueryOLAContext(ctx2, "SELECT AVG(x) FROM big", aqp.ErrorSpec{RelError: 0.0001, Confidence: 0.99})
	if err != nil {
		t.Fatalf("ola err = %v, want partial result", err)
	}
	if !res.Diagnostics.Partial {
		t.Fatalf("ola scanned all %d rows; expected deadline truncation", res.Diagnostics.Counters.RowsScanned)
	}
	if res.Guarantee != aqp.GuaranteeAPosteriori {
		t.Fatalf("guarantee = %v, want a-posteriori", res.Guarantee)
	}
	got := res.Float(0, 0)
	if got < 39 || got > 60 {
		t.Fatalf("partial AVG = %v, want ~49.5", got)
	}
}

// TestPropertyMatrixDuringRebuild measures the property matrix while
// another goroutine rebuilds the offline samples it reports maintenance
// for. Under -race it checks that the matrix reads the offline engine's
// maintenance stats under the engine lock.
func TestPropertyMatrixDuringRebuild(t *testing.T) {
	db := aqp.New()
	tbl, err := db.CreateTable("t", aqp.Schema{
		{Name: "x", Type: aqp.TypeFloat64},
		{Name: "g", Type: aqp.TypeString},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]aqp.Value, 4000)
	for i := range rows {
		rows[i] = []aqp.Value{aqp.Float64(float64(i % 100)), aqp.Str(fmt.Sprintf("g%d", i%4))}
	}
	if err := tbl.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildOfflineSamples("t", [][]string{{"g"}}); err != nil {
		t.Fatal(err)
	}
	probe := []string{"SELECT g, SUM(x) FROM t GROUP BY g"}
	if err := db.ProfileOffline(probe...); err != nil {
		t.Fatal(err)
	}

	const rebuilds = 20
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rebuilds; i++ {
			if err := db.RebuildOfflineSamples("t"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		if _, err := db.PropertyMatrix(probe, aqp.ErrorSpec{RelError: 0.5, Confidence: 0.9}); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
	if got := db.OfflineEngine().MaintenanceStats().Rebuilds; got != rebuilds {
		t.Fatalf("rebuilds = %d, want %d", got, rebuilds)
	}
}
