// Command aqpd serves an aqp.DB over HTTP/JSON: a concurrent
// approximate-query service with admission control, per-request
// deadlines, and metrics.
//
// Usage:
//
//	aqpd -gen 1000000                     # serve a synthetic star schema
//	aqpd -load orders=orders.csv          # serve CSV tables (repeatable)
//
// Endpoints: POST /query, GET /tables, POST /samples/build,
// GET /metrics, GET /audit, GET /faults, GET /shards, GET /healthz. See
// README.md for a curl quickstart. -chaos-config arms deterministic
// fault injection for resilience drills; -shards enables scatter-gather
// execution over partitioned tables.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	aqp "repro"
	"repro/internal/fault"
	"repro/internal/server"
	telemetrypkg "repro/internal/telemetry"
	"repro/internal/workload"
)

// flightSink builds the destination for automatic flight-recorder dumps:
// one timestamped JSON file per dump under dir, or indented JSON on
// stderr when no directory is configured.
func flightSink(dir string) func(telemetrypkg.Bundle) {
	return func(b telemetrypkg.Bundle) {
		if dir == "" {
			log.Printf("aqpd: flight dump (%s) follows", b.Reason)
			if err := b.WriteJSON(os.Stderr); err != nil {
				log.Printf("aqpd: flight dump: %v", err)
			}
			return
		}
		reason := strings.NewReplacer(":", "-", "/", "-").Replace(b.Reason)
		path := fmt.Sprintf("%s/flight-%s-%d.json", dir, reason, time.Now().UnixNano())
		f, err := os.Create(path)
		if err != nil {
			log.Printf("aqpd: flight dump: %v", err)
			return
		}
		defer f.Close()
		if err := b.WriteJSON(f); err != nil {
			log.Printf("aqpd: flight dump %s: %v", path, err)
			return
		}
		log.Printf("aqpd: flight dump (%s) written to %s", b.Reason, path)
	}
}

// loadFlags collects repeated -load name=path.csv flags.
type loadFlags []string

func (l *loadFlags) String() string { return strings.Join(*l, ",") }

func (l *loadFlags) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		gen        = flag.Int("gen", 0, "generate a synthetic star schema with this many fact rows")
		genSkew    = flag.Float64("gen-skew", 0, "Zipf skew for the generated workload (0 = uniform)")
		seed       = flag.Int64("seed", 1, "workload generator seed")
		workers    = flag.Int("workers", 4, "max concurrently executing queries")
		qryWorkers = flag.Int("query-workers", 0, "per-query morsel-parallel worker cap (0 = GOMAXPROCS/workers)")
		queueCap   = flag.Int("queue", 8, "max queries waiting for a worker before shedding")
		defTimeout = flag.Duration("timeout", 30*time.Second, "default per-query deadline")
		maxTimeout = flag.Duration("max-timeout", 5*time.Minute, "cap on client-requested deadlines")
		drainWait  = flag.Duration("drain", 30*time.Second, "max wait for in-flight queries at shutdown")
		slowQuery  = flag.Duration("slow-query", time.Second, "log completed queries at WARN when at least this slow")
		logLevel   = flag.String("log-level", "info", "query log level: debug logs every query, info only slow ones and errors")
		logFormat  = flag.String("log-format", "text", "query log format: text or json")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		auditFrac  = flag.Float64("audit-fraction", 0, "fraction of served approximate queries re-checked exactly in the background (0 disables accuracy auditing)")
		auditQueue = flag.Int("audit-queue", 64, "max pending audits before the oldest is shed")
		auditWin   = flag.Int("audit-window", 256, "rolling window of the per-technique coverage estimators")
		chaosCfg   = flag.String("chaos-config", "", "arm fault injection: comma-separated point:kind:prob[:latency] rules (kind: error|panic|latency; point may be *); GET /faults lists points")
		chaosSeed  = flag.Int64("chaos-seed", 1, "seed of the deterministic fault-injection decisions")
		degradeBgt = flag.Duration("degrade-budget", 500*time.Millisecond, "per-rung time budget of the graceful-degradation ladder (negative disables)")
		shards     = flag.Int("shards", 0, "partition tables into this many shards for scatter-gather execution (0 disables)")
		shardKey   = flag.String("shard-key", "", "shard-routing column (required with -shards > 1)")
		shardKind  = flag.String("shard-kind", "hash", "shard routing: hash or range")
		shardTable = flag.String("shard-table", "", "table to shard (default: every table that has the -shard-key column)")
		shardServe = flag.Bool("shard-serve", false, "run as a shard server: serve one loaded table's partition over the shard wire protocol (/shard/estimate, /shard/health) instead of the full query API")
		shardID    = flag.Int("shard-id", 0, "this shard's index within its group (with -shard-serve)")
		remoteCall = flag.Duration("remote-call-timeout", 0, "per-call deadline on remote-shard RPCs (0 = library default)")
		remotePrb  = flag.Duration("remote-probe-interval", 0, "remote-shard health-probe cadence (0 = library default, negative disables)")
		telemetry  = flag.Bool("telemetry", false, "enable the observability layer: metric time-series (GET /metrics/history), SLO engine (GET /slo), flight recorder (GET /debug/flightrecord, dumped on SIGQUIT), span export (GET /debug/spans)")
		telemStep  = flag.Duration("telemetry-step", 10*time.Second, "metric snapshot cadence")
		telemWin   = flag.Duration("telemetry-window", 15*time.Minute, "metric history retention window")
		sloConfig  = flag.String("slo-config", "", "JSON file of SLO objectives for -telemetry's SLO engine, refused without -telemetry (default: built-in latency/coverage/contract/degradation objectives)")
		flightN    = flag.Int("flight-queries", 64, "flight-recorder ring size (last N queries, plus N notable)")
		workloadN  = flag.Int("workload-cap", 256, "max query fingerprints tracked by workload insight (GET /workload); LRU-evicted beyond the cap, negative disables")
		flightDump = flag.String("flight-dump", "", "directory for automatic flight-recorder dumps (panic, SLO fast burn, SIGQUIT); empty logs dumps to stderr as JSON")
		loads      loadFlags
		remotes    loadFlags
	)
	flag.Var(&loads, "load", "load a CSV table as name=path.csv (repeatable; types inferred)")
	flag.Var(&remotes, "remote-shards", "attach remote shards as table=addr1,addr2,... (repeatable; requires -shard-key; shard i must be served at the i-th address)")
	flag.Parse()

	if *chaosCfg != "" {
		rules, err := fault.ParseRules(*chaosCfg)
		if err != nil {
			log.Fatalf("aqpd: -chaos-config: %v", err)
		}
		fault.Install(fault.Schedule{Seed: *chaosSeed, Rules: rules})
		var armed []string
		for _, st := range fault.Status() {
			if st.Rule != "" {
				armed = append(armed, st.Rule)
			}
		}
		log.Printf("aqpd: CHAOS INJECTION ARMED (seed %d): %s", *chaosSeed, strings.Join(armed, "  "))
	}

	// The SLO file is read before the tables are built, so a bad one fails
	// before the generator runs.
	objectives, err := readObjectives(*sloConfig, *telemetry)
	if err != nil {
		log.Fatalf("aqpd: %v", err)
	}

	db, err := buildDB(*gen, *genSkew, *seed, loads)
	if err != nil {
		log.Fatalf("aqpd: %v", err)
	}
	names := db.Catalog().Names()
	if len(names) == 0 {
		log.Fatalf("aqpd: no tables; use -gen N and/or -load name=path.csv")
	}
	for _, n := range names {
		if t, err := db.Table(n); err == nil {
			log.Printf("table %s: %d rows, %d columns", n, t.NumRows(), len(t.Schema()))
		}
	}

	if *shardServe {
		if err := runShardServer(db, *addr, *shardID, *shardTable); err != nil {
			log.Fatalf("aqpd: %v", err)
		}
		return
	}

	if *shards > 0 {
		if err := shardTables(db, *shards, *shardKey, *shardKind, *shardTable); err != nil {
			log.Fatalf("aqpd: %v", err)
		}
	}
	if len(remotes) > 0 {
		opt := aqp.RemoteShardOptions{
			CallTimeout:   *remoteCall,
			ProbeInterval: *remotePrb,
		}
		if err := attachRemotes(db, remotes, *shardKey, *shardKind, opt); err != nil {
			log.Fatalf("aqpd: %v", err)
		}
		defer db.Close()
	}

	level := slog.LevelInfo
	if *logLevel == "debug" {
		level = slog.LevelDebug
	}
	var handler slog.Handler
	if *logFormat == "json" {
		handler = slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	} else {
		handler = slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	}

	cfg := server.Config{
		Workers:         *workers,
		QueueCap:        *queueCap,
		DefaultTimeout:  *defTimeout,
		MaxTimeout:      *maxTimeout,
		MaxQueryWorkers: *qryWorkers,
		Logger:          slog.New(handler),
		SlowQuery:       *slowQuery,
		EnablePprof:     *pprofOn,
		AuditFraction:   *auditFrac,
		AuditQueueCap:   *auditQueue,
		AuditWindow:     *auditWin,
		AuditSeed:       *seed,
		DegradeBudget:   *degradeBgt,
	}
	if *telemetry {
		cfg.Telemetry = true
		cfg.TelemetryStep = *telemStep
		cfg.TelemetryWindow = *telemWin
		cfg.FlightQueries = *flightN
		cfg.FlightSink = flightSink(*flightDump)
		cfg.WorkloadCap = *workloadN
		cfg.Objectives = objectives
	}
	srv := server.New(db, cfg)
	if *telemetry {
		srv.TelemetryStore().Start()
		defer srv.TelemetryStore().Close()
		log.Printf("aqpd: telemetry on (step %s, window %s, flight ring %d, workload cap %d); GET /metrics/history, /slo, /workload, /debug/flightrecord, /debug/spans",
			*telemStep, *telemWin, *flightN, *workloadN)
		// SIGQUIT dumps the flight recorder instead of killing the
		// process — the operator's "what just happened" button.
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			for range quit {
				b := srv.FlightBundle("sigquit")
				cfg.FlightSink(b)
				log.Printf("aqpd: SIGQUIT flight dump: %d queries, %d events", len(b.Queries), len(b.Events))
			}
		}()
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("aqpd listening on %s (%d workers, queue %d, default timeout %s)",
		*addr, *workers, *queueCap, *defTimeout)
	if *auditFrac > 0 {
		log.Printf("aqpd: accuracy auditing %.0f%% of approximate queries (queue %d, window %d); GET /audit for the report",
			*auditFrac*100, *auditQueue, *auditWin)
	}

	select {
	case err := <-errc:
		log.Fatalf("aqpd: serve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("aqpd: shutdown requested, draining in-flight queries (up to %s)", *drainWait)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	// Stop admitting new queries first, then close listeners; queued and
	// running queries finish inside the drain budget.
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("aqpd: drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("aqpd: http shutdown: %v", err)
	}
	log.Printf("aqpd: bye")
}

// runShardServer serves one loaded table's partition over the shard wire
// protocol, blocking until SIGTERM/interrupt. The process is a leaf: no
// admission control, no engines — the coordinator owns query semantics.
func runShardServer(db *aqp.DB, addr string, shardID int, only string) error {
	names := db.Catalog().Names()
	name := only
	if name == "" {
		if len(names) != 1 {
			return fmt.Errorf("-shard-serve with %d tables loaded requires -shard-table", len(names))
		}
		name = names[0]
	}
	t, err := db.Table(name)
	if err != nil {
		return err
	}
	ss := server.NewShardServer(t, server.ShardServerConfig{ShardID: shardID, Table: name})
	httpSrv := &http.Server{Addr: addr, Handler: ss.Handler()}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	// The machine-readable line that process supervisors (and the
	// aqpbench chaos gate) wait for before pointing a coordinator here.
	fmt.Printf("SHARD-LISTENING %s\n", ln.Addr().String())
	os.Stdout.Sync()
	log.Printf("aqpd: shard server for table %s (shard %d, %d rows) on %s",
		name, shardID, t.NumRows(), ln.Addr().String())
	select {
	case err := <-errc:
		return fmt.Errorf("shard serve: %w", err)
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return httpSrv.Shutdown(shutCtx)
}

// attachRemotes wires -remote-shards specs into the DB: each spec's table
// scatters estimates over the listed shard servers under the robustness
// envelope. Attach is loud: any unreachable shard fails startup.
func attachRemotes(db *aqp.DB, specs []string, keyCol, kindName string, opt aqp.RemoteShardOptions) error {
	kind, err := aqp.ParseShardKind(kindName)
	if err != nil {
		return err
	}
	for _, spec := range specs {
		name, list, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("bad -remote-shards %q: want table=addr1,addr2,...", spec)
		}
		addrs := strings.Split(list, ",")
		if len(addrs) > 1 && keyCol == "" {
			return fmt.Errorf("-remote-shards %s: %d shards require -shard-key", name, len(addrs))
		}
		key := aqp.ShardKey{Column: keyCol, Kind: kind, Count: len(addrs)}
		g, err := db.AttachRemoteShards(name, key, addrs, opt)
		if err != nil {
			return fmt.Errorf("attach remote shards for %s: %w", name, err)
		}
		log.Printf("table %s: %d remote shards attached (%s): %s",
			name, len(addrs), g.Key(), strings.Join(addrs, " "))
	}
	return nil
}

// shardTables partitions the named table (or every table carrying the key
// column) into count shards, so queries scatter-gather with per-shard
// containment. GET /shards reports the resulting layout.
func shardTables(db *aqp.DB, count int, keyCol, kindName, only string) error {
	kind, err := aqp.ParseShardKind(kindName)
	if err != nil {
		return err
	}
	if count > 1 && keyCol == "" {
		return fmt.Errorf("-shards %d requires -shard-key", count)
	}
	key := aqp.ShardKey{Column: keyCol, Kind: kind, Count: count}
	for _, n := range db.Catalog().Names() {
		if only != "" && n != only {
			continue
		}
		if only == "" && keyCol != "" {
			t, err := db.Table(n)
			if err != nil || t.Schema().ColumnIndex(keyCol) < 0 {
				continue
			}
		}
		g, err := db.ShardTable(n, key)
		if err != nil {
			return fmt.Errorf("shard %s: %w", n, err)
		}
		log.Printf("table %s sharded: %s", n, g.Key())
	}
	if len(db.Shards().Names()) == 0 {
		return fmt.Errorf("-shards matched no table (key column %q, table %q)", keyCol, only)
	}
	return nil
}

// readObjectives reads and checks the -slo-config file, or returns nil
// without one. Only the telemetry layer runs an SLO engine, so the file is
// refused without -telemetry rather than read and dropped.
func readObjectives(path string, telemetry bool) ([]telemetrypkg.Objective, error) {
	if path == "" {
		return nil, nil
	}
	if !telemetry {
		return nil, errors.New("-slo-config needs -telemetry: without it no SLO engine runs")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("-slo-config: %v", err)
	}
	objectives, err := telemetrypkg.ParseObjectives(raw)
	if err != nil {
		return nil, fmt.Errorf("-slo-config: %v", err)
	}
	return objectives, nil
}

// buildDB assembles the catalog from the generator and/or CSV loads.
func buildDB(gen int, skew float64, seed int64, loads loadFlags) (*aqp.DB, error) {
	var db *aqp.DB
	if gen > 0 {
		star, err := workload.GenerateStar(workload.Config{
			Seed: seed, LineitemRows: gen, Skew: skew,
		})
		if err != nil {
			return nil, fmt.Errorf("generate workload: %w", err)
		}
		db = aqp.Open(star.Catalog)
	} else {
		db = aqp.New()
	}
	for _, spec := range loads {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return nil, fmt.Errorf("bad -load %q: want name=path.csv", spec)
		}
		if _, err := server.LoadCSVFile(db, name, path); err != nil {
			return nil, fmt.Errorf("load %s: %w", spec, err)
		}
	}
	return db, nil
}
