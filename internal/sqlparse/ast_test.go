package sqlparse

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
)

func TestAggExprMethods(t *testing.T) {
	a := &AggExpr{Func: AggSum, Arg: &expr.ColRef{Name: "x", Typ: storage.TypeInt64}}
	if _, err := a.Eval(nil); err == nil {
		t.Error("unplanned aggregate Eval must error")
	}
	if a.Type() != storage.TypeInt64 {
		t.Errorf("SUM(int) type = %v", a.Type())
	}
	fa := &AggExpr{Func: AggSum, Arg: &expr.ColRef{Name: "x", Typ: storage.TypeFloat64}}
	if fa.Type() != storage.TypeFloat64 {
		t.Error("SUM(float) is float")
	}
	c := &AggExpr{Func: AggCount, Star: true}
	if c.Type() != storage.TypeInt64 || c.String() != "COUNT(*)" {
		t.Errorf("COUNT(*): %v %q", c.Type(), c.String())
	}
	av := &AggExpr{Func: AggAvg, Arg: &expr.ColRef{Name: "x"}}
	if av.Type() != storage.TypeFloat64 {
		t.Error("AVG is float")
	}
	mn := &AggExpr{Func: AggMin, Arg: &expr.ColRef{Name: "s", Typ: storage.TypeString}}
	if mn.Type() != storage.TypeString {
		t.Error("MIN inherits arg type")
	}
	d := &AggExpr{Func: AggCount, Arg: &expr.ColRef{Name: "u"}, Distinct: true}
	if d.String() != "COUNT(DISTINCT u)" {
		t.Errorf("distinct render = %q", d.String())
	}
	// Walk visits the argument.
	n := 0
	d.Walk(func(expr.Expr) { n++ })
	if n != 2 {
		t.Errorf("walk count = %d", n)
	}
}

func TestSelectItemName(t *testing.T) {
	it := SelectItem{Expr: &expr.ColRef{Name: "x"}, Alias: "al"}
	if it.Name(0) != "al" {
		t.Error("alias wins")
	}
	it.Alias = ""
	if it.Name(0) != "x" {
		t.Error("expr string fallback")
	}
	empty := SelectItem{}
	if empty.Name(3) != "col3" {
		t.Error("positional fallback")
	}
}

func TestHasAggregates(t *testing.T) {
	with := mustParse(t, "SELECT SUM(x) FROM t")
	if !with.HasAggregates() {
		t.Error("has aggregates")
	}
	without := mustParse(t, "SELECT x FROM t")
	if without.HasAggregates() {
		t.Error("no aggregates")
	}
	composite := mustParse(t, "SELECT 1 + SUM(x) FROM t")
	if !composite.HasAggregates() {
		t.Error("nested aggregate detection")
	}
}

func TestParseAliasAfterTablesample(t *testing.T) {
	// SQL-standard order: alias before TABLESAMPLE.
	stmt := mustParse(t, "SELECT COUNT(*) FROM t AS x TABLESAMPLE SYSTEM (5)")
	if stmt.From.Alias != "x" || stmt.From.Sample == nil {
		t.Errorf("alias+sample: %+v", stmt.From)
	}
	// Also accepted: TABLESAMPLE before alias.
	stmt = mustParse(t, "SELECT COUNT(*) FROM t TABLESAMPLE SYSTEM (5) x")
	if stmt.From.Alias != "x" || stmt.From.Sample == nil {
		t.Errorf("sample+alias: %+v", stmt.From)
	}
}

func TestParseQualifiedSamplerKeys(t *testing.T) {
	stmt := mustParse(t, "SELECT COUNT(*) FROM t TABLESAMPLE UNIVERSE (5) ON (t.k)")
	if got := stmt.From.Sample.Spec.KeyColumns[0]; got != "k" {
		t.Errorf("qualified key = %q", got)
	}
}

func TestParseBilevel(t *testing.T) {
	stmt := mustParse(t, "SELECT COUNT(*) FROM t TABLESAMPLE BILEVEL (20, 10)")
	sp := stmt.From.Sample.Spec
	if sp.Rate != 0.2 || sp.RowRate != 0.1 {
		t.Errorf("bilevel spec = %+v", sp)
	}
	if _, err := Parse("SELECT COUNT(*) FROM t TABLESAMPLE BILEVEL (20)"); err == nil {
		t.Error("bilevel needs two rates")
	}
}

func TestParseChainedAndOr(t *testing.T) {
	stmt := mustParse(t, "SELECT x FROM t WHERE a > 1 AND b > 2 AND c > 3 OR d > 4")
	// (((a>1 AND b>2) AND c>3) OR d>4): top must be OR.
	top, ok := stmt.Where.(*expr.Binary)
	if !ok || top.Op != expr.OpOr {
		t.Fatalf("precedence: %s", stmt.Where)
	}
}
