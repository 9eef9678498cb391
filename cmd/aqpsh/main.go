// Command aqpsh is an interactive shell over the AQP framework. It
// generates demo data on demand and executes SQL — exactly, approximately
// via the advisor, or through a forced engine.
//
// Meta commands:
//
//	\gen star <rows> [skew]     generate the TPC-H-like star schema
//	\gen events <rows> <groups> [skew]
//	\tables                     list tables
//	\explain <sql>              show the optimized plan
//	\analyze <sql>              run the query and print its span profile
//	\exact <sql>                force exact execution
//	\online <sql>               force query-time sampling
//	\offline <sql>              force offline samples
//	\ola <sql>                  force online aggregation (progressive)
//	\contract [engine] <sql>    a-priori contract: pilot-sized two-stage run
//	                            (engine: online, ola, or offline; default online)
//	\prep <table> <col,col...>  build offline samples on a QCS
//	\profile <sql>              profile a query shape for offline certification
//	\synopsis <table> <col>     build histogram/HLL/CMS synopses
//	\advise <sql>               show which engine the advisor would pick
//	\shard <table> <col> <n> [hash|range]  partition a table for scatter-gather
//	\shards                     list sharded tables with per-shard health
//	\matrix <sql> [; <sql>...]  measure the no-silver-bullet matrix on probes
//	\audit                      print the continuous accuracy-audit report
//	\slo                        evaluate the SLO objectives over this session
//	\flight [n]                 summarize the last n flight-recorded queries
//	\top [n]                    per-fingerprint workload scorecards, busiest first
//	\faults                     list fault-injection points with hit/fire counts
//	\faults arm <rules> [seed]  arm chaos injection (point:kind:prob[:latency],...)
//	\faults off                 disarm chaos injection
//	\quit
//
// Plain SQL runs through the advisor; append `WITH ERROR 5% CONFIDENCE
// 95%` to set the accuracy contract. Every approximate answer is also
// handed to an embedded accuracy auditor, which re-executes it exactly
// in the background; \audit shows the rolling CI-coverage report.
package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	aqp "repro"
	"repro/internal/audit"
	"repro/internal/fault"
	"repro/internal/insight"
	"repro/internal/server"
	"repro/internal/sqlparse"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// shell bundles the open DB with the session's observers — the same
// post-serve sinks aqpd files with (metrics, flight recorder, workload
// insight, and an accuracy auditor that re-executes every approximate
// answer) — and a session-local SLO engine over them. \gen swaps the DB
// and rebinds the auditor; the rest spans the session.
type shell struct {
	db  *aqp.DB
	aud *audit.Auditor
	obs *server.Observers

	tstore *telemetry.Store
	slo    *telemetry.SLO
}

// newShell opens an empty session. The auditor audits every approximate
// answer (fraction 1, no capacity gate — a single-user shell has no
// foreground to starve). The store is snapped on demand (\slo), never on
// a ticker — an interactive shell has no background cadence worth paying
// for.
func newShell() *shell {
	sh := &shell{obs: server.NewObservers(server.Config{Telemetry: true, AuditFraction: 1, AuditSeed: 42})}
	sh.tstore = telemetry.NewStore(telemetry.StoreConfig{
		Collect: func() telemetry.Sample { return sh.obs.Metrics().TelemetrySample(nil) },
	})
	sh.slo = telemetry.NewSLO(sh.tstore, nil, nil)
	sh.tstore.Snap() // baseline edge for the first \slo
	sh.setDB(aqp.New())
	return sh
}

// setDB replaces the database and rebinds the observers to it.
func (sh *shell) setDB(db *aqp.DB) {
	sh.db = db
	sh.aud = sh.obs.Attach(db, nil)
}

// run executes one SQL line in the given mode: the line's one parse, the
// façade's Run, the filing and the printed answer share one statement.
func (sh *shell) run(sql string, req aqp.Request) {
	served := server.Served{Start: time.Now(), SQL: sql, Mode: string(req.Mode)}
	var res *aqp.Result
	var err error
	served.Stmt, err = sqlparse.Parse(sql)
	if err == nil {
		res, err = sh.db.Run(context.Background(), served.Stmt, req)
	}
	served.Finish(res, err)
	sh.obs.File(served)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(aqp.FormatResult(res))
	for _, m := range res.Diagnostics.Messages {
		fmt.Println("  ·", m)
	}
}

func main() {
	sh := newShell()
	fmt.Println("aqpsh — approximate query shell (\\gen to create data, \\quit to exit)")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("aqp> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if quit := meta(sh, line); quit {
				return
			}
			continue
		}
		sh.run(line, aqp.Request{})
	}
}

// meta handles backslash commands; returns true to quit.
func meta(sh *shell, line string) bool {
	db := sh.db
	fields := strings.Fields(line)
	cmd := fields[0]
	rest := strings.TrimSpace(strings.TrimPrefix(line, cmd))
	switch cmd {
	case "\\quit", "\\q":
		return true
	case "\\tables":
		for _, n := range db.Catalog().Names() {
			t, err := db.Table(n)
			if err != nil {
				continue
			}
			fmt.Printf("%-12s %8d rows  (%s)\n", n, t.NumRows(),
				strings.Join(t.Schema().Names(), ", "))
		}
	case "\\gen":
		if len(fields) < 3 {
			fmt.Println("usage: \\gen star <rows> [skew] | \\gen events <rows> <groups> [skew]")
			return false
		}
		rows, err := strconv.Atoi(fields[2])
		if err != nil {
			fmt.Println("bad row count:", fields[2])
			return false
		}
		switch fields[1] {
		case "star":
			skew := 0.0
			if len(fields) > 3 {
				skew, _ = strconv.ParseFloat(fields[3], 64)
			}
			star, err := workload.GenerateStar(workload.Config{Seed: 42, LineitemRows: rows, Skew: skew})
			if err != nil {
				fmt.Println("error:", err)
				return false
			}
			sh.setDB(aqp.Open(star.Catalog))
			fmt.Printf("generated star schema: lineitem=%d orders=%d customer=%d part=%d supplier=%d\n",
				star.Lineitem.NumRows(), star.Orders.NumRows(), star.Customer.NumRows(),
				star.Part.NumRows(), star.Supplier.NumRows())
		case "events":
			if len(fields) < 4 {
				fmt.Println("usage: \\gen events <rows> <groups> [skew]")
				return false
			}
			groups, _ := strconv.Atoi(fields[3])
			skew := 0.0
			if len(fields) > 4 {
				skew, _ = strconv.ParseFloat(fields[4], 64)
			}
			ev, err := workload.GenerateEvents(workload.EventsConfig{
				Seed: 42, Rows: rows, NumGroups: groups, Skew: skew})
			if err != nil {
				fmt.Println("error:", err)
				return false
			}
			sh.setDB(aqp.Open(ev.Catalog))
			fmt.Printf("generated events: %d rows, %d groups, skew %.2f\n", rows, groups, skew)
		default:
			fmt.Println("unknown dataset:", fields[1])
		}
	case "\\explain":
		out, err := db.Explain(rest)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Print(out)
	case "\\analyze":
		// EXPLAIN ANALYZE through the advisor: the span tree (per-operator
		// timings, rows in/out, worker morsels) comes back as the rows,
		// above the usual technique / shards footer.
		sh.run("EXPLAIN ANALYZE "+rest, aqp.Request{})
	case "\\advise":
		d, err := db.Advise(rest)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("technique=%s guarantee=%s reason=%s\n", d.Technique, d.Guarantee, d.Reason)
	case "\\exact", "\\online", "\\offline":
		mode, _ := aqp.ParseMode(cmd[1:])
		sh.run(rest, aqp.Request{Mode: mode})
	case "\\ola":
		sh.run(rest, aqp.Request{Mode: aqp.ModeOLA, Observe: func(p aqp.Progress) bool {
			fmt.Printf("  %5.1f%% read, current max CI half-width %.4f\n",
				p.Fraction*100, p.Result.MaxRelHalfWidth())
			return true
		}})
	case "\\contract":
		// Pilot-sized two-stage execution: FormatResult appends the
		// contract footer (verdict, sized fractions, pilot/final rows).
		mode, sql := aqp.ModeOnline, rest
		if len(fields) > 1 {
			if m, err := aqp.ParseMode(fields[1]); err == nil {
				mode, sql = m, strings.TrimSpace(strings.TrimPrefix(rest, fields[1]))
			}
		}
		if sql == "" {
			fmt.Println("usage: \\contract [online|ola|offline] <sql WITH ERROR e% CONFIDENCE c%>")
			return false
		}
		sh.run(sql, aqp.Request{Mode: mode, Contract: true})
	case "\\prep":
		if len(fields) < 3 {
			fmt.Println("usage: \\prep <table> <col[,col...]>")
			return false
		}
		qcs := strings.Split(fields[2], ",")
		if err := db.BuildOfflineSamples(fields[1], [][]string{qcs}); err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("built offline samples for %s on (%s)\n", fields[1], fields[2])
	case "\\profile":
		if err := db.ProfileOffline(rest); err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Println("profiled")
	case "\\matrix":
		probes := []string{}
		for _, q := range strings.Split(rest, ";") {
			if q = strings.TrimSpace(q); q != "" {
				probes = append(probes, q)
			}
		}
		if len(probes) == 0 {
			fmt.Println("usage: \\matrix <sql> [; <sql>...]")
			return false
		}
		rows, err := db.PropertyMatrix(probes, aqp.DefaultErrorSpec)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("%-20s %10s %10s %11s %12s\n",
			"technique", "supported", "a-priori", "work-saved", "precompute")
		for _, r := range rows {
			fmt.Printf("%-20s %9.0f%% %9.0f%% %10.0f%% %12d\n",
				r.Technique, r.SupportedFraction*100, r.APrioriFraction*100,
				r.MeanWorkSaved*100, r.PrecomputeRows)
		}
	case "\\audit":
		// Wait for pending background re-executions so the report covers
		// everything offered so far.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := sh.aud.Drain(ctx); err != nil {
			fmt.Printf("warning: audit backlog not drained: %v\n", err)
		}
		fmt.Print(sh.aud.Report().String())
	case "\\slo":
		// Snap a fresh edge so the evaluation covers everything since the
		// previous \slo (or session start).
		sh.tstore.Snap()
		fmt.Printf("%-18s %-13s %7s %10s %10s %8s  %s\n",
			"OBJECTIVE", "KIND", "TARGET", "FAST_BURN", "SLOW_BURN", "BUDGET", "STATE")
		for _, st := range sh.slo.Evaluate() {
			fmt.Printf("%-18s %-13s %6.2f%% %10.2f %10.2f %7.0f%%  %s\n",
				st.Objective.Name, st.Objective.Kind, st.Objective.Target*100,
				st.Fast.Burn, st.Slow.Burn, st.BudgetRemaining*100, st.State)
		}
	case "\\flight":
		n := 10
		if len(fields) > 1 {
			v, err := strconv.Atoi(fields[1])
			if err != nil || v <= 0 {
				fmt.Println("usage: \\flight [n]")
				return false
			}
			n = v
		}
		b := sh.obs.Flight().Snapshot("aqpsh")
		if len(b.Queries) == 0 {
			fmt.Println("flight recorder empty (run some queries first)")
			return false
		}
		if len(b.Queries) > n {
			b.Queries = b.Queries[len(b.Queries)-n:]
		}
		fmt.Printf("%4s %6s %-18s %-8s %-10s %-10s %9s  %s\n",
			"SEQ", "STATUS", "TECHNIQUE", "DEGRADED", "VERDICT", "KEEP", "LATENCY", "SQL")
		for _, qr := range b.Queries {
			verdict, keep, tech := qr.ContractVerdict, qr.Keep, qr.Technique
			if verdict == "" {
				verdict = "-"
			}
			if keep == "" {
				keep = "-"
			}
			if tech == "" {
				tech = "-"
			}
			sql := qr.SQL
			if len(sql) > 48 {
				sql = sql[:45] + "..."
			}
			fmt.Printf("%4d %6d %-18s %-8v %-10s %-10s %7.2fms  %s\n",
				qr.Seq, qr.Status, tech, qr.Degraded, verdict, keep, qr.LatencyMS, sql)
		}
	case "\\top":
		n := 10
		if len(fields) > 1 {
			v, err := strconv.Atoi(fields[1])
			if err != nil || v <= 0 {
				fmt.Println("usage: \\top [n]")
				return false
			}
			n = v
		}
		cards := sh.obs.Insight().Top(n, insight.ByTraffic)
		if len(cards) == 0 {
			fmt.Println("no query shapes fingerprinted yet (run some SQL first)")
			return false
		}
		sum := sh.obs.Insight().Summary()
		fmt.Printf("%d shape(s) tracked, %d quer%s offered",
			sum.Fingerprints, sum.Offered, plural(sum.Offered, "y", "ies"))
		if sum.Evictions > 0 {
			fmt.Printf(", %d evicted", sum.Evictions)
		}
		if sum.Regressions > 0 {
			fmt.Printf(", %d regression(s)", sum.Regressions)
		}
		fmt.Println()
		fmt.Printf("%-16s %7s %5s %9s %9s %8s %6s %-14s %s\n",
			"FINGERPRINT", "QUERIES", "ERRS", "P50", "P95", "WIDTH95", "REGR", "TECHNIQUES", "TEMPLATE")
		for _, c := range cards {
			techs := make([]string, 0, len(c.Techniques))
			for _, tc := range c.Techniques {
				techs = append(techs, tc.Technique)
			}
			tmpl := c.Template
			if len(tmpl) > 56 {
				tmpl = tmpl[:53] + "..."
			}
			regr := fmt.Sprintf("%d", c.Regressions)
			if len(c.Active) > 0 {
				regr += "!"
			}
			fmt.Printf("%-16s %7d %5d %7.2fms %7.2fms %8.4f %6s %-14s %s\n",
				c.Fingerprint, c.Queries, c.Errors,
				c.LatencyP50MS, c.LatencyP95MS, c.RelWidthP95, regr,
				strings.Join(techs, ","), tmpl)
		}
	case "\\shard":
		if len(fields) < 4 {
			fmt.Println("usage: \\shard <table> <col> <count> [hash|range]")
			return false
		}
		count, err := strconv.Atoi(fields[3])
		if err != nil {
			fmt.Println("bad shard count:", fields[3])
			return false
		}
		kindName := "hash"
		if len(fields) > 4 {
			kindName = fields[4]
		}
		kind, err := aqp.ParseShardKind(kindName)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		g, err := db.ShardTable(fields[1], aqp.ShardKey{Column: fields[2], Kind: kind, Count: count})
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("sharded %s: %s\n", fields[1], g.Key())
	case "\\shards":
		names := db.Shards().Names()
		if len(names) == 0 {
			fmt.Println("no sharded tables (\\shard <table> <col> <count> to create)")
			return false
		}
		for _, n := range names {
			g := db.Shards().Get(n)
			fmt.Printf("%s: %s, %d rows\n", n, g.Key(), g.Rows())
			fmt.Printf("  %-6s %-7s %10s %8s %8s  %s\n",
				"SHARD", "KIND", "ROWS", "OPEN", "TRIPS", "REMOTE")
			for _, h := range g.Health() {
				remote := ""
				if h.Kind == "remote" {
					state := "up"
					if !h.Alive {
						state = "DOWN"
					}
					remote = fmt.Sprintf("%s %s probe=%.1fms retries=%d hedges=%d/%d",
						h.Addr, state, h.ProbeLatencyMS, h.Retries, h.HedgeWins, h.Hedges)
				}
				fmt.Printf("  %-6d %-7s %10d %8v %8d  %s\n",
					h.ID, h.Kind, h.Rows, h.Open, h.Trips, remote)
			}
		}
	case "\\synopsis":
		if len(fields) < 3 {
			fmt.Println("usage: \\synopsis <table> <col>")
			return false
		}
		if err := db.BuildSynopsis(fields[1], fields[2]); err != nil {
			fmt.Println("error:", err)
			return false
		}
		fmt.Printf("built synopses for %s.%s\n", fields[1], fields[2])
	case "\\faults":
		switch {
		case len(fields) >= 3 && fields[1] == "arm":
			rules, err := fault.ParseRules(fields[2])
			if err != nil {
				fmt.Println("error:", err)
				return false
			}
			var seed int64 = 1
			if len(fields) >= 4 {
				if seed, err = strconv.ParseInt(fields[3], 10, 64); err != nil {
					fmt.Println("error: bad seed:", fields[3])
					return false
				}
			}
			fault.Install(fault.Schedule{Seed: seed, Rules: rules})
			fmt.Printf("chaos armed (seed %d)\n", seed)
		case len(fields) >= 2 && fields[1] == "off":
			fault.Uninstall()
			fmt.Println("chaos disarmed")
		case len(fields) >= 2:
			fmt.Println("usage: \\faults [arm <point:kind:prob[:latency],...> [seed] | off]")
			return false
		}
		fmt.Printf("injection %s\n", map[bool]string{true: "ARMED", false: "disarmed"}[fault.Active()])
		fmt.Printf("%-24s %8s %8s  %s\n", "POINT", "HITS", "FIRES", "RULE")
		for _, st := range fault.Status() {
			rule := st.Rule
			if rule == "" {
				rule = "-"
			}
			fmt.Printf("%-24s %8d %8d  %s\n", st.Name, st.Hits, st.Fires, rule)
		}
	default:
		fmt.Println("unknown command:", cmd)
	}
	return false
}

// plural picks the singular or plural suffix for n.
func plural(n uint64, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
