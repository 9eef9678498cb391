package aqp

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec"
)

// profileDB builds a table big enough that the morsel scheduler cuts
// several morsels (minMorselRows is 8192): 5+ morsels at 48k rows.
func profileDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	tbl, err := db.CreateTable("t", Schema{
		{Name: "x", Type: TypeFloat64},
		{Name: "g", Type: TypeString},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 48_000
	rows := make([][]Value, 0, 8192)
	for i := 0; i < n; i++ {
		rows = append(rows, []Value{
			Float64(float64(i%1000) / 10),
			Str(fmt.Sprintf("g%d", i%4)),
		})
		if len(rows) == cap(rows) {
			if err := tbl.AppendRows(rows); err != nil {
				t.Fatal(err)
			}
			rows = rows[:0]
		}
	}
	if len(rows) > 0 {
		if err := tbl.AppendRows(rows); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestExplainReturnsPlanWithoutExecuting(t *testing.T) {
	db := profileDB(t)
	res, err := db.Query("EXPLAIN SELECT SUM(x) FROM t WHERE x > 10 GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("columns = %v", res.Columns)
	}
	text := resultText(res)
	if !strings.Contains(text, "Aggregate") || !strings.Contains(text, "Scan t") {
		t.Fatalf("plan text missing operators:\n%s", text)
	}
	// FormatResult must render it without panicking (Items populated).
	_ = FormatResult(res)
}

func TestExplainAnalyzeParallelProfile(t *testing.T) {
	db := profileDB(t)
	ctx := exec.ContextWithWorkers(context.Background(), 4)
	res, err := db.QueryContext(ctx, "EXPLAIN ANALYZE SELECT SUM(x), COUNT(*) FROM t WHERE x > 10 GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	if res.Technique != TechniqueExact {
		t.Fatalf("technique = %s", res.Technique)
	}
	text := resultText(res)
	// Per-operator wall time and rows in/out.
	if !strings.Contains(text, "ms") || !strings.Contains(text, "in=") || !strings.Contains(text, "out=") {
		t.Fatalf("profile missing timings or row counts:\n%s", text)
	}
	if !strings.Contains(text, "engine exact") || !strings.Contains(text, "HashAggregate") {
		t.Fatalf("profile missing spans:\n%s", text)
	}
	// Per-worker morsel counts for all 4 workers.
	for w := 0; w < 4; w++ {
		if !strings.Contains(text, fmt.Sprintf("worker %d", w)) {
			t.Fatalf("profile missing worker %d:\n%s", w, text)
		}
	}
	if !strings.Contains(text, "morsels=") || !strings.Contains(text, "stall=") {
		t.Fatalf("profile missing morsel/stall accounting:\n%s", text)
	}
	if !strings.Contains(text, "merge") {
		t.Fatalf("profile missing merge span:\n%s", text)
	}
}

// TestTracedParallelDeterminism is the acceptance bar for observability:
// with tracing enabled, a 1-worker and a 4-worker run of the same
// aggregate produce bit-identical rows.
func TestTracedParallelDeterminism(t *testing.T) {
	db := profileDB(t)
	const sql = "SELECT g, SUM(x), AVG(x), COUNT(*) FROM t WHERE x > 10 GROUP BY g ORDER BY g"

	run := func(workers int) *Result {
		ctx, prof := WithProfile(context.Background())
		ctx = exec.ContextWithWorkers(ctx, workers)
		res, err := db.QueryContext(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		p := prof.Profile()
		if p == nil || p.Find("engine exact") == nil {
			t.Fatalf("W=%d: profile not recorded", workers)
		}
		if workers > 1 {
			workerSpans := p.FindAll("worker ")
			if len(workerSpans) != workers {
				t.Fatalf("W=%d: %d worker spans:\n%s", workers, len(workerSpans), p)
			}
			var morsels int64
			for _, ws := range workerSpans {
				var m int64
				fmt.Sscanf(ws.Attr("morsels"), "%d", &m)
				morsels += m
			}
			if morsels < 5 {
				t.Fatalf("W=%d: only %d morsels claimed across workers, want >= 5", workers, morsels)
			}
		}
		return res
	}

	serial := run(1)
	parallel := run(4)
	if !reflect.DeepEqual(serial.Rows, parallel.Rows) {
		t.Fatalf("traced W=1 and W=4 rows differ:\n%v\n%v", serial.Rows, parallel.Rows)
	}
}

// TestProfileDisabledUnchanged checks queries without tracing or EXPLAIN
// still behave identically (guard against runStatement regressions).
func TestProfileDisabledUnchanged(t *testing.T) {
	db := profileDB(t)
	res, err := db.Query("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsFloat(); got != 48_000 {
		t.Fatalf("COUNT(*) = %v", got)
	}
}

func resultText(res *Result) string {
	var sb strings.Builder
	for _, row := range res.Rows {
		sb.WriteString(row[0].S)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestExplainAnalyzeEndsQuerySpanOnFailure: a failing EXPLAIN ANALYZE must
// still stop its query span's clock, or a caller-installed tracer (the
// server's per-request one) exports a span that never ended.
func TestExplainAnalyzeEndsQuerySpanOnFailure(t *testing.T) {
	db := profileDB(t)
	ctx, prof := WithProfile(context.Background())
	if _, err := db.QueryContext(ctx, "EXPLAIN ANALYZE SELECT SUM(nope) FROM t"); err == nil {
		t.Fatal("unknown column: want an error")
	}
	root := prof.Profile()
	if len(root.Children) != 1 || root.Children[0].Name != "query" {
		t.Fatalf("want one query span under the root:\n%s", root)
	}
	if q := root.Children[0]; q.DurationMS <= 0 {
		t.Fatalf("query span never ended (duration %v):\n%s", q.DurationMS, root)
	}
}
