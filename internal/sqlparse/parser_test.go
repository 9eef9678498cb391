package sqlparse

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/sample"
)

func mustParse(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return stmt
}

func TestParseSimple(t *testing.T) {
	stmt := mustParse(t, "SELECT a, b FROM t WHERE a > 1")
	if len(stmt.Items) != 2 {
		t.Fatalf("items = %d", len(stmt.Items))
	}
	if stmt.From.Name != "t" {
		t.Fatalf("from = %q", stmt.From.Name)
	}
	if stmt.Where == nil {
		t.Fatal("missing where")
	}
	if stmt.Limit != -1 {
		t.Fatal("limit should default to -1")
	}
}

func TestParseAggregates(t *testing.T) {
	stmt := mustParse(t, "SELECT COUNT(*), SUM(x), AVG(y), MIN(x), MAX(y) FROM t")
	aggs := stmt.Aggregates()
	if len(aggs) != 5 {
		t.Fatalf("aggs = %d", len(aggs))
	}
	if aggs[0].Func != AggCount || !aggs[0].Star {
		t.Error("first agg should be COUNT(*)")
	}
	if aggs[1].Func != AggSum || aggs[1].Arg == nil {
		t.Error("second agg should be SUM(x)")
	}
	for i, a := range aggs {
		if a.Slot != i {
			t.Errorf("slot %d = %d", i, a.Slot)
		}
	}
}

func TestParseCompositeAggregate(t *testing.T) {
	stmt := mustParse(t, "SELECT SUM(a)/SUM(b) AS ratio FROM t")
	if len(stmt.Items) != 1 || stmt.Items[0].Alias != "ratio" {
		t.Fatal("alias lost")
	}
	aggs := stmt.Aggregates()
	if len(aggs) != 2 {
		t.Fatalf("aggs = %d", len(aggs))
	}
	if _, ok := stmt.Items[0].Expr.(*expr.Binary); !ok {
		t.Fatal("composite aggregate should parse to a binary expression")
	}
}

func TestParseCountDistinct(t *testing.T) {
	stmt := mustParse(t, "SELECT COUNT(DISTINCT user_id) FROM hits")
	aggs := stmt.Aggregates()
	if len(aggs) != 1 || !aggs[0].Distinct {
		t.Fatal("expected COUNT(DISTINCT ...)")
	}
}

func TestParseGroupByHavingOrderLimit(t *testing.T) {
	stmt := mustParse(t, `SELECT dept, COUNT(*) AS n FROM emp
		GROUP BY dept HAVING COUNT(*) > 5 ORDER BY n DESC, dept LIMIT 10`)
	if len(stmt.GroupBy) != 1 {
		t.Fatal("group by lost")
	}
	if stmt.Having == nil {
		t.Fatal("having lost")
	}
	if len(stmt.OrderBy) != 2 || !stmt.OrderBy[0].Desc || stmt.OrderBy[1].Desc {
		t.Fatalf("order by = %+v", stmt.OrderBy)
	}
	if stmt.Limit != 10 {
		t.Fatalf("limit = %d", stmt.Limit)
	}
}

func TestParseJoin(t *testing.T) {
	stmt := mustParse(t, `SELECT SUM(l_price) FROM lineitem
		JOIN orders ON l_orderkey = o_orderkey
		JOIN customer ON o_custkey = c_custkey
		WHERE o_year = 1995`)
	if len(stmt.Joins) != 2 {
		t.Fatalf("joins = %d", len(stmt.Joins))
	}
	tables := []string{stmt.From.Name}
	for _, j := range stmt.Joins {
		tables = append(tables, j.Table.Name)
	}
	if strings.Join(tables, ",") != "lineitem,orders,customer" {
		t.Fatalf("tables = %v", tables)
	}
}

func TestParseQualifiedColumns(t *testing.T) {
	stmt := mustParse(t, "SELECT t.a FROM t WHERE t.a > 0")
	cols := expr.Columns(stmt.Items[0].Expr)
	if len(cols) != 1 || cols[0] != "a" {
		t.Fatalf("qualifier should be stripped: %v", cols)
	}
}

func TestParseTableSample(t *testing.T) {
	cases := []struct {
		sql  string
		kind sample.Kind
		rate float64
	}{
		{"SELECT COUNT(*) FROM t TABLESAMPLE BERNOULLI (5)", sample.KindUniformRow, 0.05},
		{"SELECT COUNT(*) FROM t TABLESAMPLE SYSTEM (1)", sample.KindBlock, 0.01},
		{"SELECT COUNT(*) FROM t TABLESAMPLE UNIVERSE (10) ON (k)", sample.KindUniverse, 0.10},
		{"SELECT COUNT(*) FROM t TABLESAMPLE DISTINCT (2, 50) ON (g)", sample.KindDistinct, 0.02},
	}
	for _, c := range cases {
		stmt := mustParse(t, c.sql)
		ts := stmt.From.Sample
		if ts == nil {
			t.Fatalf("%q: no sample parsed", c.sql)
		}
		if ts.Spec.Kind != c.kind {
			t.Errorf("%q: kind = %v, want %v", c.sql, ts.Spec.Kind, c.kind)
		}
		if diff := ts.Spec.Rate - c.rate; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("%q: rate = %v, want %v", c.sql, ts.Spec.Rate, c.rate)
		}
	}
	stmt := mustParse(t, "SELECT COUNT(*) FROM t TABLESAMPLE DISTINCT (2, 50) ON (g)")
	if stmt.From.Sample.Spec.KeepThreshold != 50 {
		t.Errorf("keep = %d", stmt.From.Sample.Spec.KeepThreshold)
	}
}

func TestParseErrorClause(t *testing.T) {
	stmt := mustParse(t, "SELECT SUM(x) FROM t WITH ERROR 5% CONFIDENCE 95%")
	if stmt.Error == nil {
		t.Fatal("error clause lost")
	}
	if stmt.Error.RelError != 0.05 || stmt.Error.Confidence != 0.95 {
		t.Fatalf("error clause = %+v", stmt.Error)
	}
	// Fractional form without %.
	stmt = mustParse(t, "SELECT SUM(x) FROM t WITH ERROR 0.01")
	if stmt.Error.RelError != 0.01 || stmt.Error.Confidence != 0.95 {
		t.Fatalf("error clause = %+v", stmt.Error)
	}
}

func TestParseExpressions(t *testing.T) {
	good := []string{
		"SELECT a + b * 2 FROM t",
		"SELECT -a FROM t",
		"SELECT a FROM t WHERE a BETWEEN 1 AND 10",
		"SELECT a FROM t WHERE a IN (1, 2, 3)",
		"SELECT a FROM t WHERE a NOT IN (1, 2)",
		"SELECT a FROM t WHERE name LIKE 'abc%'",
		"SELECT a FROM t WHERE name NOT LIKE '%x%'",
		"SELECT a FROM t WHERE a IS NULL",
		"SELECT a FROM t WHERE a IS NOT NULL",
		"SELECT a FROM t WHERE NOT (a = 1 OR b = 2)",
		"SELECT ABS(a), SQRT(b) FROM t",
		"SELECT a FROM t WHERE s = 'it''s'",
		"SELECT a FROM t; ",
		"SELECT a FROM t -- trailing comment",
	}
	for _, sql := range good {
		if _, err := Parse(sql); err != nil {
			t.Errorf("Parse(%q): %v", sql, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP",
		"SELECT a t t t",
		"SELECT SUM(*) FROM t",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t TABLESAMPLE WRONG (5)",
		"SELECT a FROM t TABLESAMPLE UNIVERSE (5)", // missing ON
		"SELECT a FROM t WHERE 'unterminated",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestStmtString(t *testing.T) {
	sql := "SELECT dept, SUM(pay) AS total FROM emp WHERE pay > 10 GROUP BY dept ORDER BY total DESC LIMIT 5 WITH ERROR 5% CONFIDENCE 95%"
	stmt := mustParse(t, sql)
	rendered := stmt.String()
	// Round-trip: re-parse the rendered SQL.
	stmt2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("re-parse %q: %v", rendered, err)
	}
	if stmt2.String() != rendered {
		t.Errorf("String not fixed-point:\n%s\n%s", rendered, stmt2.String())
	}
}

func TestLexer(t *testing.T) {
	toks, err := Lex("SELECT a1, 'str''x', 1.5e3 <= >= <> != ( )")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokenKind{TokKeyword, TokIdent, TokSymbol, TokString, TokSymbol,
		TokNumber, TokSymbol, TokSymbol, TokSymbol, TokSymbol, TokSymbol, TokSymbol, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("token count = %d, want %d: %+v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d kind = %v, want %v (%+v)", i, toks[i].Kind, k, toks[i])
		}
	}
	if toks[3].Text != "str'x" {
		t.Errorf("string literal = %q", toks[3].Text)
	}
}

func TestAggFuncLinear(t *testing.T) {
	if !AggSum.Linear() || !AggCount.Linear() || !AggAvg.Linear() {
		t.Error("SUM/COUNT/AVG are linear")
	}
	if AggMin.Linear() || AggMax.Linear() {
		t.Error("MIN/MAX are not linear")
	}
}
