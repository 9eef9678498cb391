package sqlparse

import (
	"testing"

	"repro/internal/expr"
)

// fuzzSeedCorpus covers every clause the grammar knows, drawn from the
// queries the experiment suite and tests actually run.
var fuzzSeedCorpus = []string{
	"SELECT COUNT(*) FROM t",
	"SELECT SUM(x), COUNT(*), AVG(x) FROM t",
	"SELECT SUM(ev_value) FROM events",
	"SELECT ev_group, COUNT(*) FROM events GROUP BY ev_group",
	"SELECT ev_group, SUM(ev_value) FROM events WHERE ev_value > 10 GROUP BY ev_group HAVING SUM(ev_value) > 100 ORDER BY ev_group DESC LIMIT 5",
	"SELECT SUM(l_extendedprice * (1 - l_discount)) FROM lineitem",
	"SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem JOIN orders ON l_orderkey = o_orderkey",
	"SELECT AVG(x) FROM t TABLESAMPLE BERNOULLI (1)",
	"SELECT SUM(x) FROM t TABLESAMPLE SYSTEM (5) WHERE x < 3",
	"SELECT COUNT(*) FROM t TABLESAMPLE UNIVERSE (1) ON (k)",
	"SELECT COUNT(*) FROM t TABLESAMPLE DISTINCT (1, 30) ON (g, h)",
	"SELECT SUM(x) FROM t TABLESAMPLE BILEVEL (10, 1)",
	"SELECT SUM(x) FROM t WITH ERROR 5% CONFIDENCE 95%",
	"SELECT SUM(x) FROM t WITH ERROR 0.5",
	"SELECT SUM(x) FROM t WITH ERROR 0.5% CONFIDENCE 99%",
	"SELECT SUM(x) FROM t WITH ERROR 2 % CONFIDENCE 90 %",
	"SELECT SUM(x) FROM t WITH ERROR 0.02 CONFIDENCE 0.95",
	"SELECT AVG(x) FROM t WHERE x > 0 WITH ERROR 1%",
	"SELECT g, SUM(x) FROM t GROUP BY g LIMIT 3 WITH ERROR 5% CONFIDENCE 99%",
	"SELECT SUM(x) FROM t WITH ERROR 100% CONFIDENCE 50%",
	"SELECT PERCENTILE(x, 0.5) FROM t",
	"SELECT MIN(x), MAX(x) FROM t",
	"SELECT COUNT(DISTINCT g) FROM t",
	"SELECT x FROM t WHERE g IN (1, 2, 3) AND NOT x BETWEEN 2 AND 4",
	"SELECT x FROM t WHERE name LIKE 'a%' OR name IS NOT NULL",
	"SELECT x AS v, -x + 3.5e2 FROM t WHERE x % 2 = 1 AND (x / 4) <> 0.25",
	"SELECT x FROM t WHERE s = 'it''s' LIMIT 0;",
	"SELECT t.x FROM big t TABLESAMPLE BERNOULLI (0.1) WHERE t.x >= 1e-3",
	"EXPLAIN SELECT COUNT(*) FROM t",
	"EXPLAIN ANALYZE SELECT SUM(x) FROM t WHERE x > 1 GROUP BY g",
	"EXPLAIN ANALYZE SELECT AVG(x) FROM t WITH ERROR 5% CONFIDENCE 95%",
}

// assertSlotsDense checks what makes a parsed statement shareable without
// a lock: the parser already numbered the aggregates 0..n-1 in traversal
// order (select items, then HAVING), so nothing downstream writes the AST.
// The walk reads Slot straight off the tree, before Aggregates() is called.
func assertSlotsDense(t *testing.T, stmt *SelectStmt) {
	t.Helper()
	var walked []*AggExpr
	visit := func(e expr.Expr) {
		if e != nil {
			e.Walk(func(n expr.Expr) {
				if a, ok := n.(*AggExpr); ok {
					walked = append(walked, a)
				}
			})
		}
	}
	for _, it := range stmt.Items {
		visit(it.Expr)
	}
	visit(stmt.Having)
	for i, a := range walked {
		if a.Slot != i {
			t.Fatalf("%q: aggregate %d (%s) parsed with slot %d", stmt, i, a, a.Slot)
		}
	}
	aggs := stmt.Aggregates()
	if len(aggs) != len(walked) {
		t.Fatalf("%q: Aggregates() has %d entries, the tree %d", stmt, len(aggs), len(walked))
	}
	for i := range aggs {
		if aggs[i] != walked[i] {
			t.Fatalf("%q: Aggregates()[%d] is not the tree's aggregate %d", stmt, i, i)
		}
	}
}

// FuzzParse asserts the properties the rest of the system leans on: the
// parser never panics on arbitrary input, every accepted statement comes
// back with its aggregate slots assigned, and its canonical rendering
// re-parses to the same canonical form (String is a fixed point after one
// round).
func FuzzParse(f *testing.F) {
	for _, sql := range fuzzSeedCorpus {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := Parse(input)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		assertSlotsDense(t, stmt)
		s2 := stmt.String()
		stmt2, err := Parse(s2)
		if err != nil {
			t.Fatalf("rendering of accepted input does not re-parse\ninput:  %q\nrender: %q\nerr: %v", input, s2, err)
		}
		if s3 := stmt2.String(); s3 != s2 {
			t.Fatalf("canonical form is not a fixed point\nfirst:  %q\nsecond: %q", s2, s3)
		}
	})
}

// TestParseRoundTripCorpus runs the fuzz property over the seed corpus in
// a plain test so `go test` exercises it without -fuzz.
func TestParseRoundTripCorpus(t *testing.T) {
	for _, sql := range fuzzSeedCorpus {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("seed %q failed to parse: %v", sql, err)
		}
		assertSlotsDense(t, stmt)
		s2 := stmt.String()
		stmt2, err := Parse(s2)
		if err != nil {
			t.Fatalf("seed %q rendering %q does not re-parse: %v", sql, s2, err)
		}
		if s3 := stmt2.String(); s3 != s2 {
			t.Fatalf("seed %q not canonical: %q then %q", sql, s2, s3)
		}
	}
}
