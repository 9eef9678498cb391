package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/sample"
	"repro/internal/storage"
)

// Parse parses a single SELECT statement.
//
// Qualified column references (alias.col) are accepted; the qualifier is
// discarded, so joined tables must have globally unique column names (the
// convention followed by every schema in this repository, TPC-H style).
func Parse(input string) (*SelectStmt, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, input: input}
	explain := p.acceptKeyword("EXPLAIN")
	analyze := explain && p.acceptKeyword("ANALYZE")
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	stmt.Explain = explain
	stmt.Analyze = analyze
	// Allow a trailing semicolon.
	p.acceptSymbol(";")
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.peek().Text)
	}
	stmt.orderAggs = p.orderAggs
	stmt.assignSlots()
	return stmt, nil
}

// assignSlots collects the aggregates of the select items and HAVING
// clause in traversal order and numbers them. It is the last write to the
// statement: everything downstream reads Slot and Aggregates().
func (s *SelectStmt) assignSlots() {
	number := func(n expr.Expr) {
		if a, ok := n.(*AggExpr); ok {
			a.Slot = len(s.aggs)
			s.aggs = append(s.aggs, a)
		}
	}
	for _, it := range s.Items {
		it.Expr.Walk(number)
	}
	s.itemAggs = len(s.aggs)
	if s.Having != nil {
		s.Having.Walk(number)
	}
}

type parser struct {
	toks  []Token
	pos   int
	input string
	// clause names the clause being parsed, "" for the select list; inAgg
	// counts the aggregate arguments being parsed; orderAggs records an
	// aggregate in ORDER BY. parseAggregate reads them to refuse an
	// aggregate where none has a value.
	clause    string
	inAgg     int
	orderAggs bool
}

func (p *parser) peek() Token { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEOF() bool { return p.peek().Kind == TokEOF }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sqlparse: at offset %d: %s", p.peek().Pos, fmt.Sprintf(format, args...))
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.Kind == TokKeyword && t.Text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %q", kw, p.peek().Text)
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if t := p.peek(); t.Kind == TokSymbol && t.Text == sym {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errorf("expected %q, found %q", sym, p.peek().Text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return "", p.errorf("expected identifier, found %q", t.Text)
	}
	p.pos++
	return t.Text, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	stmt.From = from
	for {
		if p.acceptKeyword("INNER") {
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if !p.acceptKeyword("JOIN") {
			break
		}
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		p.clause = "JOIN ON"
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Joins = append(stmt.Joins, JoinClause{Table: tr, On: on})
	}
	if p.acceptKeyword("WHERE") {
		p.clause = "WHERE"
		stmt.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		p.clause = "GROUP BY"
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, g)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		p.clause = "HAVING"
		stmt.Having, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		p.clause = "ORDER BY"
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.Kind != TokNumber {
			return nil, p.errorf("expected LIMIT count")
		}
		p.pos++
		v, err := strconv.Atoi(t.Text)
		if err != nil || v < 0 {
			return nil, p.errorf("bad LIMIT %q", t.Text)
		}
		stmt.Limit = v
	}
	if p.acceptKeyword("WITH") {
		if err := p.expectKeyword("ERROR"); err != nil {
			return nil, err
		}
		e, err := p.parsePercent()
		if err != nil {
			return nil, err
		}
		ec := &ErrorClause{RelError: e, Confidence: 0.95}
		if p.acceptKeyword("CONFIDENCE") {
			c, err := p.parsePercent()
			if err != nil {
				return nil, err
			}
			ec.Confidence = c
		}
		stmt.Error = ec
	}
	return stmt, nil
}

// parsePercent parses a number optionally followed by %. Values above 1
// are treated as percentages even without the sign.
func (p *parser) parsePercent() (float64, error) {
	t := p.peek()
	if t.Kind != TokNumber {
		return 0, p.errorf("expected number, found %q", t.Text)
	}
	p.pos++
	v, err := strconv.ParseFloat(t.Text, 64)
	if err != nil {
		return 0, p.errorf("bad number %q", t.Text)
	}
	if p.acceptSymbol("%") || v > 1 {
		v /= 100
	}
	return v, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if t := p.peek(); t.Kind == TokIdent {
		// Bare alias.
		p.pos++
		item.Alias = t.Text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	tr := TableRef{Name: name}
	if p.acceptKeyword("TABLESAMPLE") {
		ts, err := p.parseTableSample()
		if err != nil {
			return TableRef{}, err
		}
		tr.Sample = ts
	}
	if p.acceptKeyword("AS") {
		tr.Alias, err = p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
	} else if t := p.peek(); t.Kind == TokIdent {
		p.pos++
		tr.Alias = t.Text
	}
	// TABLESAMPLE may also follow the alias (SQL standard order).
	if tr.Sample == nil && p.acceptKeyword("TABLESAMPLE") {
		ts, err := p.parseTableSample()
		if err != nil {
			return TableRef{}, err
		}
		tr.Sample = ts
	}
	return tr, nil
}

// parseTableSample parses:
//
//	TABLESAMPLE BERNOULLI (p)
//	TABLESAMPLE SYSTEM (p)
//	TABLESAMPLE UNIVERSE (p) ON (col, ...)
//	TABLESAMPLE DISTINCT (p [, keep]) ON (col, ...)
//
// where p is a percentage.
func (p *parser) parseTableSample() (*TableSample, error) {
	var kind sample.Kind
	switch {
	case p.acceptKeyword("BERNOULLI"):
		kind = sample.KindUniformRow
	case p.acceptKeyword("SYSTEM"):
		kind = sample.KindBlock
	case p.acceptKeyword("UNIVERSE"):
		kind = sample.KindUniverse
	case p.acceptKeyword("DISTINCT"):
		kind = sample.KindDistinct
	case p.acceptKeyword("BILEVEL"):
		kind = sample.KindBiLevel
	default:
		return nil, p.errorf("expected sampling method, found %q", p.peek().Text)
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	// TABLESAMPLE rates are percentages per the SQL standard: SYSTEM (1)
	// samples 1% of blocks.
	t := p.peek()
	if t.Kind != TokNumber {
		return nil, p.errorf("expected sampling percentage, found %q", t.Text)
	}
	p.pos++
	pct, err := strconv.ParseFloat(t.Text, 64)
	if err != nil {
		return nil, p.errorf("bad sampling percentage %q", t.Text)
	}
	p.acceptSymbol("%")
	rate := pct / 100
	spec := sample.Spec{Kind: kind, Rate: rate, KeepThreshold: 1}
	if kind == sample.KindBiLevel {
		// BILEVEL (blockPct, rowPct)
		if err := p.expectSymbol(","); err != nil {
			return nil, err
		}
		rt := p.peek()
		if rt.Kind != TokNumber {
			return nil, p.errorf("expected row sampling percentage")
		}
		p.pos++
		rowPct, err := strconv.ParseFloat(rt.Text, 64)
		if err != nil {
			return nil, p.errorf("bad row sampling percentage %q", rt.Text)
		}
		p.acceptSymbol("%")
		spec.RowRate = rowPct / 100
	}
	if kind == sample.KindDistinct && p.acceptSymbol(",") {
		t := p.peek()
		if t.Kind != TokNumber {
			return nil, p.errorf("expected keep threshold")
		}
		p.pos++
		k, err := strconv.Atoi(t.Text)
		if err != nil || k <= 0 {
			return nil, p.errorf("bad keep threshold %q", t.Text)
		}
		spec.KeepThreshold = k
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if kind == sample.KindUniverse || kind == sample.KindDistinct {
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColumnName()
			if err != nil {
				return nil, err
			}
			spec.KeyColumns = append(spec.KeyColumns, col)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &TableSample{Spec: spec}, nil
}

// parseColumnName parses ident[.ident], returning the unqualified name.
func (p *parser) parseColumnName() (string, error) {
	name, err := p.expectIdent()
	if err != nil {
		return "", err
	}
	if p.acceptSymbol(".") {
		name, err = p.expectIdent()
		if err != nil {
			return "", err
		}
	}
	return name, nil
}

// Expression grammar, lowest precedence first.
func (p *parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &expr.Binary{Op: expr.OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &expr.Binary{Op: expr.OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &expr.Unary{Op: expr.OpNot, X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (expr.Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		neg := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		name := "ISNULL"
		if neg {
			name = "ISNOTNULL"
		}
		return &expr.Call{Name: name, Args: []expr.Expr{l}}, nil
	}
	// [NOT] IN / BETWEEN / LIKE
	negate := false
	if t := p.peek(); t.Kind == TokKeyword && t.Text == "NOT" {
		if n := p.toks[p.pos+1]; n.Kind == TokKeyword && (n.Text == "IN" || n.Text == "BETWEEN" || n.Text == "LIKE") {
			p.pos++
			negate = true
		}
	}
	if p.acceptKeyword("IN") {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var list []expr.Expr
		for {
			e, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &expr.In{X: l, List: list, Negate: negate}, nil
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		rng := &expr.Binary{Op: expr.OpAnd,
			L: &expr.Binary{Op: expr.OpGe, L: l, R: lo},
			R: &expr.Binary{Op: expr.OpLe, L: expr.Clone(l), R: hi}}
		if negate {
			return &expr.Unary{Op: expr.OpNot, X: rng}, nil
		}
		return rng, nil
	}
	if p.acceptKeyword("LIKE") {
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		var e expr.Expr = &expr.Call{Name: "LIKE", Args: []expr.Expr{l, pat}}
		if negate {
			e = &expr.Unary{Op: expr.OpNot, X: e}
		}
		return e, nil
	}
	t := p.peek()
	if t.Kind == TokSymbol {
		var op expr.Op
		switch t.Text {
		case "=":
			op = expr.OpEq
		case "<>", "!=":
			op = expr.OpNe
		case "<":
			op = expr.OpLt
		case "<=":
			op = expr.OpLe
		case ">":
			op = expr.OpGt
		case ">=":
			op = expr.OpGe
		default:
			return l, nil
		}
		p.pos++
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &expr.Binary{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseAdditive() (expr.Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokSymbol || (t.Text != "+" && t.Text != "-") {
			return l, nil
		}
		p.pos++
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		op := expr.OpAdd
		if t.Text == "-" {
			op = expr.OpSub
		}
		l = &expr.Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (expr.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokSymbol || (t.Text != "*" && t.Text != "/" && t.Text != "%") {
			return l, nil
		}
		p.pos++
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		var op expr.Op
		switch t.Text {
		case "*":
			op = expr.OpMul
		case "/":
			op = expr.OpDiv
		default:
			op = expr.OpMod
		}
		l = &expr.Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (expr.Expr, error) {
	if p.acceptSymbol("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &expr.Unary{Op: expr.OpNeg, X: x}, nil
	}
	p.acceptSymbol("+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.pos++
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.Text)
			}
			return &expr.Lit{Val: storage.Float64(f)}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(t.Text, 64)
			if ferr != nil {
				return nil, p.errorf("bad number %q", t.Text)
			}
			return &expr.Lit{Val: storage.Float64(f)}, nil
		}
		return &expr.Lit{Val: storage.Int64(i)}, nil
	case TokString:
		p.pos++
		return &expr.Lit{Val: storage.Str(t.Text)}, nil
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.pos++
			return &expr.Lit{Val: storage.Value{Typ: storage.TypeString, Null: true}}, nil
		case "TRUE":
			p.pos++
			return &expr.Lit{Val: storage.Bool(true)}, nil
		case "FALSE":
			p.pos++
			return &expr.Lit{Val: storage.Bool(false)}, nil
		case "SUM", "COUNT", "AVG", "MIN", "MAX", "PERCENTILE":
			return p.parseAggregate()
		}
		return nil, p.errorf("unexpected keyword %q in expression", t.Text)
	case TokSymbol:
		if t.Text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.Text == "*" {
			// Bare * only valid inside COUNT(*), handled there.
			return nil, p.errorf("unexpected *")
		}
		return nil, p.errorf("unexpected symbol %q", t.Text)
	case TokIdent:
		p.pos++
		// Function call?
		if p.peek().Kind == TokSymbol && p.peek().Text == "(" {
			p.pos++
			name := strings.ToUpper(t.Text)
			var args []expr.Expr
			if !(p.peek().Kind == TokSymbol && p.peek().Text == ")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.acceptSymbol(",") {
						break
					}
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &expr.Call{Name: name, Args: args}, nil
		}
		name := t.Text
		if p.acceptSymbol(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			name = col // qualifier discarded; see Parse doc
		}
		return &expr.ColRef{Name: name, Index: -1}, nil
	}
	return nil, p.errorf("unexpected token %q", t.Text)
}

func (p *parser) parseAggregate() (expr.Expr, error) {
	t := p.next() // the aggregate keyword
	fn := AggFunc(t.Text)
	switch {
	case p.inAgg > 0:
		return nil, p.errorf("aggregate %s inside another aggregate", fn)
	case p.clause == "WHERE" || p.clause == "GROUP BY" || p.clause == "JOIN ON":
		// These run before aggregation: no aggregate has a value there.
		return nil, p.errorf("aggregate %s in %s", fn, p.clause)
	case p.clause == "ORDER BY":
		p.orderAggs = true
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	agg := &AggExpr{Func: fn}
	if p.acceptKeyword("DISTINCT") {
		agg.Distinct = true
	}
	if p.acceptSymbol("*") {
		if fn != AggCount {
			return nil, p.errorf("%s(*) is not valid", fn)
		}
		agg.Star = true
	} else {
		p.inAgg++
		arg, err := p.parseExpr()
		p.inAgg--
		if err != nil {
			return nil, err
		}
		agg.Arg = arg
	}
	if fn == AggPercentile {
		if err := p.expectSymbol(","); err != nil {
			return nil, err
		}
		t := p.peek()
		if t.Kind != TokNumber {
			return nil, p.errorf("expected percentile quantile, found %q", t.Text)
		}
		p.pos++
		q, err := strconv.ParseFloat(t.Text, 64)
		if err != nil || q <= 0 || q >= 1 {
			return nil, p.errorf("percentile quantile must be in (0,1), got %q", t.Text)
		}
		agg.Param = q
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return agg, nil
}
