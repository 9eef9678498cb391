// Command aqpbench runs the reproduction experiment suite (see DESIGN.md
// for the per-experiment index; -list prints it) and prints paper-style
// tables. The pass/fail gates live in `go test`; the one gate kept here is
// the telemetry-cost A/B, which nothing else measures.
//
// Usage:
//
//	aqpbench -exp E4              # one experiment
//	aqpbench -exp E4,E21          # several
//	aqpbench -exp all -rows 1000000 -trials 30
//	aqpbench -exp E4 -json        # also write results/bench_E4.json
//	aqpbench -telemetry-overhead  # observability-cost gate: p50 regression < 3%
//	aqpbench -list
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	aqp "repro"
	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/workload"
)

// benchJSON is the machine-readable form of one experiment run.
type benchJSON struct {
	ID        string     `json:"id"`
	Title     string     `json:"title"`
	Rows      int        `json:"rows"`
	Trials    int        `json:"trials"`
	Seed      int64      `json:"seed"`
	Workers   int        `json:"workers,omitempty"`
	ElapsedMS float64    `json:"elapsed_ms"`
	Header    []string   `json:"header"`
	Data      [][]string `json:"data"`
	Notes     []string   `json:"notes,omitempty"`
}

func main() {
	all := experiments.IDs()
	var (
		exp = flag.String("exp", "all", fmt.Sprintf("comma-separated experiment IDs (%s..%s) or 'all'",
			all[0], all[len(all)-1]))
		rows    = flag.Int("rows", experiments.DefaultScale.Rows, "fact-table rows")
		trials  = flag.Int("trials", experiments.DefaultScale.Trials, "Monte-Carlo trials")
		seed    = flag.Int64("seed", experiments.DefaultScale.Seed, "random seed")
		workers = flag.Int("workers", 0, "morsel-parallel workers per query (0 = GOMAXPROCS)")
		list    = flag.Bool("list", false, "list experiments and exit")
		jsonOut = flag.Bool("json", false, "also write each table to results/bench_<id>.json")
		outDir  = flag.String("out", "results", "directory for -json output")
		teleOv  = flag.Bool("telemetry-overhead", false, "run the observability-cost gate: interleaved A/B exact scans with telemetry on vs off, fail if the telemetry arm's p50 regresses 3% or more")
	)
	flag.Parse()

	if *list {
		for _, id := range all {
			fmt.Printf("%-5s %s\n", id, experiments.Describe(id))
		}
		return
	}
	if *teleOv {
		if err := runTelemetryOverhead(*rows, *seed, *workers); err != nil {
			fail("telemetry overhead gate: %v", err)
		}
		return
	}

	ids := all
	if !strings.EqualFold(*exp, "all") {
		// Validate the whole list before running anything: an experiment
		// can take a minute, and a typo in the last ID should not cost it.
		ids = strings.Split(strings.ToUpper(*exp), ",")
		for i, id := range ids {
			ids[i] = strings.TrimSpace(id)
			if !slices.Contains(all, ids[i]) {
				fail("unknown experiment %q (have %s)", ids[i], strings.Join(all, ", "))
			}
		}
	}
	scale := experiments.Scale{Rows: *rows, Trials: *trials, Seed: *seed, Workers: *workers}
	if *jsonOut {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fail("%v", err)
		}
	}
	for _, id := range ids {
		start := time.Now()
		tab, err := experiments.Run(id, scale)
		if err != nil {
			fail("%s: %v", id, err)
		}
		elapsed := time.Since(start)
		fmt.Println(tab)
		fmt.Printf("(%s completed in %s)\n\n", id, elapsed.Round(time.Millisecond))
		if *jsonOut {
			if err := writeJSON(*outDir, tab, scale, elapsed); err != nil {
				fail("%s: %v", id, err)
			}
		}
	}
}

// fail prints one diagnostic line to stderr and exits nonzero.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "aqpbench: "+format+"\n", args...)
	os.Exit(1)
}

// runTelemetryOverhead is the observability-cost release gate: it
// interleaves identical exact scans against two in-process servers —
// one bare, one with the flight recorder, span exporter, time-series
// store, and SLO engine all live — and fails when the telemetry arm's
// p50 latency regresses by 3% or more. Interleaving A/B pairs inside
// one process (and flipping the within-pair order every iteration)
// cancels the drift that would dominate a run-A-then-run-B comparison
// at millisecond scales: page-cache warming, GC cadence, CPU thermal
// state. The telemetry arm is fully armed — per-query span trees,
// flight-recorder rings, and a running snapshot ticker — so the gate
// measures the real production cost, not a stripped-down one.
func runTelemetryOverhead(rows int, seed int64, workers int) error {
	const (
		pairs      = 60
		warmup     = 8
		maxRegress = 0.03
	)
	if rows < 500_000 {
		rows = 500_000 // the gate's canonical scale: a 500k-row exact scan
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: seed, Rows: rows, NumGroups: 16, Skew: 0.8,
	})
	if err != nil {
		return err
	}
	// Both servers share one read-only DB so the only variable between
	// the arms is the observability layer itself.
	db := aqp.Open(ev.Catalog)
	bare := server.New(db, server.Config{Workers: workers, Logger: logger})
	tele := server.New(db, server.Config{Workers: workers, Logger: logger, Telemetry: true})
	tele.TelemetryStore().Start()
	defer tele.TelemetryStore().Close()

	body, err := json.Marshal(server.QueryRequest{
		SQL: "SELECT SUM(ev_value), COUNT(*) FROM events WHERE ev_value >= 0", Mode: "exact",
	})
	if err != nil {
		return err
	}
	// run serves one query and returns its latency in milliseconds.
	run := func(h http.Handler) (float64, error) {
		r := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		if w.Code != http.StatusOK {
			return 0, fmt.Errorf("status %d: %s", w.Code, w.Body.String())
		}
		return float64(d.Microseconds()) / 1e3, nil
	}

	bh, th := bare.Handler(), tele.Handler()
	for i := 0; i < warmup; i++ {
		if _, err := run(bh); err != nil {
			return fmt.Errorf("warmup bare: %w", err)
		}
		if _, err := run(th); err != nil {
			return fmt.Errorf("warmup telemetry: %w", err)
		}
	}
	var bareLat, teleLat []float64
	for i := 0; i < pairs; i++ {
		if i%2 == 0 {
			d, err := run(bh)
			if err != nil {
				return fmt.Errorf("pair %d bare: %w", i, err)
			}
			bareLat = append(bareLat, d)
			d, err = run(th)
			if err != nil {
				return fmt.Errorf("pair %d telemetry: %w", i, err)
			}
			teleLat = append(teleLat, d)
		} else {
			d, err := run(th)
			if err != nil {
				return fmt.Errorf("pair %d telemetry: %w", i, err)
			}
			teleLat = append(teleLat, d)
			d, err = run(bh)
			if err != nil {
				return fmt.Errorf("pair %d bare: %w", i, err)
			}
			bareLat = append(bareLat, d)
		}
	}

	p50b, p50t := stats.NearestRank(bareLat, 0.5), stats.NearestRank(teleLat, 0.5)
	p90b, p90t := stats.NearestRank(bareLat, 0.9), stats.NearestRank(teleLat, 0.9)
	regress := (p50t - p50b) / p50b
	fmt.Printf("telemetry overhead gate: rows=%d pairs=%d (interleaved, order-flipped)\n", rows, pairs)
	fmt.Printf("  bare:      p50 %8.3f ms   p90 %8.3f ms\n", p50b, p90b)
	fmt.Printf("  telemetry: p50 %8.3f ms   p90 %8.3f ms\n", p50t, p90t)
	fmt.Printf("  p50 regression %+.2f%% (bound %+.0f%%)\n", 100*regress, 100*maxRegress)
	if regress >= maxRegress {
		return fmt.Errorf("telemetry p50 %.3fms regresses %.2f%% over bare p50 %.3fms (bound %.0f%%)",
			p50t, 100*regress, p50b, 100*maxRegress)
	}
	fmt.Println("  gate ok")
	return nil
}

// writeJSON serializes one experiment table to <dir>/bench_<id>.json.
func writeJSON(dir string, tab *experiments.Table, scale experiments.Scale, elapsed time.Duration) error {
	out := benchJSON{
		ID:        tab.ID,
		Title:     tab.Title,
		Rows:      scale.Rows,
		Trials:    scale.Trials,
		Seed:      scale.Seed,
		Workers:   scale.Workers,
		ElapsedMS: float64(elapsed.Microseconds()) / 1e3,
		Header:    tab.Header,
		Data:      tab.Rows,
		Notes:     tab.Notes,
	}
	path := filepath.Join(dir, fmt.Sprintf("bench_%s.json", tab.ID))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
