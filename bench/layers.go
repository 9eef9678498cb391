package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	aqp "repro"
	"repro/internal/audit"
	"repro/internal/core"
	rexec "repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/insight"
	rplan "repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

// layerProbe measures single layers from outside: bench-side spans around
// calls into the public functions of this repo's modules, over an
// in-process copy of the data and the workload's own statements. The
// numbers say which layer a change moved; they never feed an end-to-end
// metric.
type layerProbe struct {
	rec  *recorder
	out  map[string]metric
	star *workload.Star
	sqls []string // the workload's distinct statements
}

// Statement shapes the executor probes run; fixed, so the numbers compare
// across workloads and seeds.
const (
	sqlIntFilter   = "SELECT COUNT(*) AS n FROM lineitem WHERE l_shipdate <= 1200"
	sqlStringGroup = "SELECT l_shipmode, COUNT(*) AS n, SUM(l_extendedprice) AS total FROM lineitem GROUP BY l_shipmode ORDER BY l_shipmode"
	sqlArithAgg    = "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue FROM lineitem"
	sqlJoin        = "SELECT p_brand, SUM(l_extendedprice) AS revenue FROM lineitem JOIN part ON l_partkey = p_partkey GROUP BY p_brand ORDER BY p_brand"
	sqlAvg         = "SELECT AVG(l_quantity) AS aq, COUNT(*) AS n FROM lineitem"
	sqlManyGroups  = "SELECT l_suppkey, COUNT(*) AS n, SUM(l_extendedprice) AS total FROM lineitem WHERE l_suppkey <= 500 GROUP BY l_suppkey ORDER BY l_suppkey LIMIT 10"
)

// The sample ladder the offline probes build; approx.single's.
var probeQCS = [][]string{{"l_shipmode"}, {"l_returnflag", "l_linestatus"}}

// spans runs fn reps times, each under a span, and returns the durations.
func (l *layerProbe) spans(name string, reps int, fn func()) []float64 {
	out := make([]float64, reps)
	for i := range out {
		out[i] = float64(l.rec.timed(name, 0, 0, fn))
	}
	return out
}

func (l *layerProbe) set(name string, value float64, unit string) {
	l.out[name] = metric{Value: value, Unit: unit}
}

func us(ns float64) float64 { return ns / 1e3 }

// measureStorage generates the data set under a heap-delta and timing
// bracket; the generated star is the in-process copy every other probe
// (and the answer reference) uses.
func (l *layerProbe) measureStorage(rows int) error {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var err error
	d := l.rec.timed("workload.GenerateStar", 0, 0, func() { l.star, err = generateStar(rows) })
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	l.set("storage.bytes_per_row", float64(after.HeapAlloc-before.HeapAlloc)/float64(rows), "B/row")
	l.set("storage.append_ns_per_row", float64(d)/float64(rows), "ns/row")
	snap := l.spans("storage.Table.Snapshot", 200, func() { l.star.Lineitem.Snapshot() })
	l.set("storage.snapshot_us", us(median(snap)), "us")
	return nil
}

// measureFrontEnd times parse, fingerprint and plan over the workload's
// statements, plus planning under the contention shard legs see.
func (l *layerProbe) measureFrontEnd() error {
	var parse, finger, build, contended []float64
	const reps = 20
	for _, sql := range l.sqls {
		var stmt *sqlparse.SelectStmt
		var err error
		parse = append(parse, l.spans("sqlparse.Parse", reps, func() { stmt, err = sqlparse.Parse(sql) })...)
		if err != nil {
			return fmt.Errorf("parse %q: %w", sql, err)
		}
		finger = append(finger, l.spans("sqlparse.Fingerprint", reps, func() { stmt.Fingerprint() })...)
		build = append(build, l.spans("plan.Build", reps, func() { _, err = rplan.Build(stmt, l.star.Catalog) })...)
		if err != nil {
			return fmt.Errorf("plan %q: %w", sql, err)
		}
	}
	// Shard legs all plan from the scatter's one statement through
	// shard.BuildShardQueryPlan, which serialises on a package mutex.
	stmt, err := sqlparse.Parse(sqlStringGroup)
	if err != nil {
		return err
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < shardCount; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := l.spans("shard.BuildShardQueryPlan", 200, func() {
				shard.BuildShardQueryPlan(shard.Query{Stmt: stmt}, l.star.Lineitem)
			})
			mu.Lock()
			contended = append(contended, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	l.set("sqlparse.parse_us", us(median(parse)), "us")
	l.set("sqlparse.fingerprint_us", us(median(finger)), "us")
	l.set("plan.build_us", us(median(build)), "us")
	l.set("plan.build_contended_us", us(median(contended)), "us")
	return nil
}

func (l *layerProbe) buildPlan(sql string) (rplan.Node, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return rplan.Build(stmt, l.star.Catalog)
}

// measureExec times full and sampled scans and a join through the
// morsel-parallel executor at one and two workers.
func (l *layerProbe) measureExec() error {
	ctx := context.Background()
	run := func(name, sql string, sampled bool, workers int) (float64, error) {
		p, err := l.buildPlan(sql)
		if err != nil {
			return 0, err
		}
		if sampled {
			for _, s := range rplan.Scans(p) {
				s.Sample = &sample.Spec{Kind: sample.KindUniformRow, Rate: 0.01, Seed: 1}
			}
		}
		var res *rexec.Result
		d := l.spans(name, 5, func() { res, err = rexec.RunParallelContext(ctx, p, workers) })
		if err != nil {
			return 0, err
		}
		return median(d) / float64(res.Counters.RowsScanned), nil
	}
	shapes := []struct{ metric, sql string }{
		{"exec.scan_ns_per_row.int_filter", sqlIntFilter},
		{"exec.scan_ns_per_row.string_groupby", sqlStringGroup},
		{"exec.scan_ns_per_row.arith_agg", sqlArithAgg},
		{"exec.join_ns_per_row", sqlJoin},
	}
	for _, sh := range shapes {
		for _, w := range []int{1, 2} {
			name := fmt.Sprintf("%s.w%d", sh.metric, w)
			v, err := run("exec.RunParallelContext "+name, sh.sql, false, w)
			if err != nil {
				return err
			}
			l.set(name, v, "ns/row")
		}
	}
	v, err := run("exec.RunParallelContext sampled", sqlArithAgg, true, 1)
	if err != nil {
		return err
	}
	l.set("exec.sampled_scan_ns_per_row", v, "ns/row")
	return nil
}

// measureEngines builds and certifies the offline sample ladder, then
// times each engine's Execute path through the façade. decide is what the
// engine spends outside the executor: its total minus the operator self
// time in the span tree the program itself records.
func (l *layerProbe) measureEngines() error {
	db := aqp.Open(l.star.Catalog)
	probes := []string{sqlArithAgg, sqlAvg}
	var err error
	d := l.rec.timed("DB.BuildOfflineSamples+ProfileOffline", 0, 0, func() {
		if err = db.BuildOfflineSamples(shardTable, probeQCS); err == nil {
			err = db.ProfileOffline(append([]string{sqlStringGroup}, probes...)...)
		}
	})
	if err != nil {
		return err
	}
	l.set("sample.build_s", d.Seconds(), "s")

	spec := core.ErrorSpec{RelError: relError, Confidence: confidence}
	engines := []struct {
		name string
		tech core.Technique
		run  func(ctx context.Context, sql string) (*core.Result, error)
	}{
		{"exact", core.TechniqueExact, func(ctx context.Context, sql string) (*core.Result, error) { return db.QueryContext(ctx, sql) }},
		{"online", core.TechniqueOnline, func(ctx context.Context, sql string) (*core.Result, error) {
			return db.QueryOnlineContext(ctx, sql, spec)
		}},
		{"offline", core.TechniqueOffline, func(ctx context.Context, sql string) (*core.Result, error) {
			return db.QueryOfflineContext(ctx, sql, spec)
		}},
		{"ola", core.TechniqueOLA, func(ctx context.Context, sql string) (*core.Result, error) {
			return db.QueryOLAContext(ctx, sql, spec)
		}},
	}
	for _, e := range engines {
		var total, decide []float64
		for _, sql := range probes {
			var res *core.Result
			total = append(total, l.spans("core.Execute "+e.name, 5, func() {
				res, err = e.run(rexec.ContextWithWorkers(context.Background(), 1), sql)
			})...)
			if err != nil {
				return fmt.Errorf("engine %s %q: %w", e.name, sql, err)
			}
			if res.Technique != e.tech {
				return fmt.Errorf("engine %s answered %q with technique %s", e.name, sql, res.Technique)
			}
			for i := 0; i < 3; i++ {
				ctx, prof := aqp.WithProfile(rexec.ContextWithWorkers(context.Background(), 1))
				t0 := time.Now()
				if _, err := e.run(ctx, sql); err != nil {
					return err
				}
				wall := time.Since(t0)
				tree := &recorder{}
				tree.addProfile(prof.Profile(), 0, 0)
				decide = append(decide, float64(wall-selfByCategory(tree.snapshot(), "query")["op"]))
			}
		}
		l.set("core.engine_us."+e.name, us(median(total)), "us")
		l.set("core.decide_us."+e.name, us(median(decide)), "us")
	}
	return nil
}

// measureScatter partitions the fact table four ways in-process and times
// scatter, merge, finalize, the partial wire format and the RPC seam for a
// one-group and a many-group statement.
func (l *layerProbe) measureScatter() error {
	ctx := context.Background()
	db := aqp.Open(l.star.Catalog)
	g, err := db.ShardTable(shardTable, shardKeySpec())
	if err != nil {
		return err
	}
	// The same partitions behind the shard wire protocol, on loopback.
	addrs := make([]string, shardCount)
	for i := range addrs {
		ss := server.NewShardServer(g.ShardTable(i), server.ShardServerConfig{ShardID: i, Table: shardTable})
		ts := httptest.NewServer(ss.Handler())
		defer ts.Close()
		addrs[i] = ts.URL
	}
	rg, err := shard.AttachRemote(l.star.Lineitem, shardKeySpec(), addrs,
		shard.RemoteOptions{ProbeInterval: -1}, fault.BreakerConfig{})
	if err != nil {
		return err
	}
	defer rg.Close()

	for _, c := range []struct{ tag, sql string }{{"g1", sqlArithAgg}, {"gmany", sqlManyGroups}} {
		stmt, err := sqlparse.Parse(c.sql)
		if err != nil {
			return err
		}
		base, err := rplan.Build(stmt, l.star.Catalog)
		if err != nil {
			return err
		}
		q := shard.Query{Stmt: stmt}

		// Scatter overhead: the scatter span minus its slowest leg, from
		// the span tree the scatter itself records.
		var overhead []float64
		for i := 0; i < 5; i++ {
			tctx, prof := aqp.WithProfile(ctx)
			id := l.rec.start("shard.Group.Scatter "+c.tag, 0, 0)
			_, err := g.Scatter(tctx, stmt, shard.ExecOptions{Workers: serverWorkers})
			l.rec.end(id)
			if err != nil {
				return err
			}
			sc := prof.Profile().Find("scatter ")
			if sc == nil {
				return fmt.Errorf("scatter recorded no span")
			}
			slowest := 0.0
			for _, leg := range sc.Children {
				slowest = max(slowest, leg.DurationMS)
			}
			overhead = append(overhead, (sc.DurationMS-slowest)*1e3)
		}
		l.set("shard.scatter_us."+c.tag, median(overhead), "us")

		// One partial per shard, shipped once through the wire format;
		// decoding yields the fresh copies each destructive merge needs.
		wire := make([][]byte, shardCount)
		var encode []float64
		for i, sh := range g.Shards() {
			part, err := sh.Estimate(ctx, q, 1)
			if err != nil {
				return err
			}
			encode = append(encode, l.spans("exec.EncodeAggPartialWire "+c.tag, 5, func() {
				wire[i], err = rexec.EncodeAggPartialWire(part)
			})...)
			if err != nil {
				return err
			}
		}
		var decode, merge, finalize []float64
		for rep := 0; rep < 5; rep++ {
			parts := make([]*rexec.AggPartial, shardCount)
			for i := range parts {
				decode = append(decode, float64(l.rec.timed("exec.DecodeAggPartialWire "+c.tag, 0, 0, func() {
					parts[i], err = rexec.DecodeAggPartialWire(wire[i])
				})))
				if err != nil {
					return err
				}
			}
			var merged *rexec.AggPartial
			merge = append(merge, float64(l.rec.timed("exec.MergeAggPartials "+c.tag, 0, 0, func() {
				merged = rexec.MergeAggPartials(parts)
			})))
			finalize = append(finalize, float64(l.rec.timed("exec.FinalizeAggPartial "+c.tag, 0, 0, func() {
				_, err = rexec.FinalizeAggPartial(ctx, base, merged)
			})))
			if err != nil {
				return err
			}
		}
		l.set("exec.wire_encode_us."+c.tag, us(median(encode)), "us")
		l.set("exec.wire_decode_us."+c.tag, us(median(decode)), "us")
		l.set("exec.wire_bytes."+c.tag, float64(len(wire[0])), "B")
		l.set("exec.merge_us."+c.tag, us(median(merge)), "us")
		l.set("exec.finalize_us."+c.tag, us(median(finalize)), "us")

		// The seam itself: the same estimate on the same partition, through
		// a RemoteShard and through its LocalShard twin.
		estimate := func(name string, sh shard.Shard) (float64, error) {
			var err error
			d := l.spans(name+" "+c.tag, 9, func() { _, err = sh.Estimate(ctx, q, 1) })
			return median(d), err
		}
		local, err := estimate("shard.LocalShard.Estimate", g.Shards()[0])
		if err != nil {
			return err
		}
		remote, err := estimate("shard.RemoteShard.Estimate", rg.Shards()[0])
		if err != nil {
			return err
		}
		l.set("shard.rpc_us."+c.tag, us(remote-local), "us")
	}
	return nil
}

// measureObservers times the post-serve bookkeeping the query handler
// does for every answer, in the order and with the keys it uses: the
// metrics registry, workload insight and the audit offer (a nil auditor,
// as at audit fraction 0).
func (l *layerProbe) measureObservers() {
	m := server.NewMetrics()
	reg := insight.New(insight.Config{})
	var aud *audit.Auditor
	rowBuckets := []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8}
	res := &core.Result{Technique: core.TechniqueExact}
	var d []float64
	for rep := 0; rep < 20; rep++ {
		for _, sql := range l.sqls {
			d = append(d, float64(l.rec.timed("server.observers", 0, 0, func() {
				tech := string(res.Technique)
				m.Inc(server.Key("queries_total", "technique", tech))
				m.Inc(server.Key("queries_by_guarantee", "guarantee", "exact"))
				m.Add("rows_scanned_total", 250000)
				m.Observe(server.Key("query_latency_ms", "technique", tech), 1.5)
				m.ObserveWith(server.Key("query_rows_scanned", "technique", tech), 250000, rowBuckets)
				aud.Offer(res, sql)
				reg.Offer(sql, insight.Observation{Technique: tech, LatencyMS: 1.5, RowsScanned: 250000})
			})))
		}
	}
	l.set("server.observe_us", us(median(d)), "us")
}

// run takes every in-process probe in turn.
func (l *layerProbe) run() error {
	if err := l.measureFrontEnd(); err != nil {
		return err
	}
	if err := l.measureExec(); err != nil {
		return err
	}
	if err := l.measureEngines(); err != nil {
		return err
	}
	if err := l.measureScatter(); err != nil {
		return err
	}
	l.measureObservers()
	return nil
}
