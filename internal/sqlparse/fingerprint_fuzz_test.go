package sqlparse

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
)

// mutateLiterals rewrites every literal in the statement to a different
// same-typed value, plus the non-expression literal positions (LIMIT,
// error clause, sampler rates). By the fingerprint contract, none of
// this may change the hash.
func mutateLiterals(s *SelectStmt) {
	bump := func(e expr.Expr) {
		if e == nil {
			return
		}
		e.Walk(func(n expr.Expr) {
			l, ok := n.(*expr.Lit)
			if !ok || l.Val.Null {
				return
			}
			switch l.Val.Typ {
			case storage.TypeInt64:
				l.Val = storage.Int64(l.Val.I + 13)
			case storage.TypeFloat64:
				l.Val = storage.Float64(l.Val.F*2 + 1.25)
			case storage.TypeString:
				l.Val = storage.Str(l.Val.S + "zz")
			case storage.TypeBool:
				l.Val = storage.Bool(!l.Val.B)
			}
		})
	}
	for _, it := range s.Items {
		bump(it.Expr)
	}
	for _, j := range s.Joins {
		bump(j.On)
	}
	bump(s.Where)
	for _, g := range s.GroupBy {
		bump(g)
	}
	bump(s.Having)
	for _, o := range s.OrderBy {
		bump(o.Expr)
	}
	if s.Limit >= 0 {
		s.Limit += 7
	}
	if s.Error != nil {
		s.Error.RelError /= 2
		s.Error.Confidence *= 0.99
	}
	mutateSample := func(ts *TableSample) {
		if ts == nil {
			return
		}
		ts.Spec.Rate /= 2
		if ts.Spec.RowRate > 0 {
			ts.Spec.RowRate /= 2
		}
		if ts.Spec.KeepThreshold > 1 {
			ts.Spec.KeepThreshold *= 2
		}
	}
	mutateSample(s.From.Sample)
	for i := range s.Joins {
		mutateSample(s.Joins[i].Table.Sample)
	}
}

// FuzzFingerprint asserts the fingerprint contract on every parse-able
// input: totality (no panics), stability under the canonicalization
// round-trip (fingerprint(q) == fingerprint(parse(canonical(q)))),
// invariance under literal mutation, and sensitivity to a structural
// change (toggling LIMIT presence).
func FuzzFingerprint(f *testing.F) {
	for _, sql := range fuzzSeedCorpus {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := Parse(input)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		fp := stmt.Fingerprint()
		if len(fp.Hash) != 16 {
			t.Fatalf("hash %q is not 16 hex digits for %q", fp.Hash, input)
		}

		// Stability: the canonical rendering re-parses to the same shape.
		canonical := stmt.String()
		stmt2, err := Parse(canonical)
		if err != nil {
			t.Fatalf("canonical %q of accepted input %q does not re-parse: %v", canonical, input, err)
		}
		if fp2 := stmt2.Fingerprint(); fp2.Hash != fp.Hash || fp2.Template != fp.Template {
			t.Fatalf("fingerprint unstable across canonicalization\ninput: %q\nfirst: %s %q\nsecond: %s %q",
				input, fp.Hash, fp.Template, fp2.Hash, fp2.Template)
		}

		// Literal invariance: perturb every literal position; the shape
		// must not move. (Statements are immutable outside this package;
		// the mutated tree is re-digested with the unmemoised fingerprint.)
		mutateLiterals(stmt2)
		if fp3 := stmt2.fingerprint(); fp3.Hash != fp.Hash {
			t.Fatalf("literal mutation changed fingerprint\ninput: %q\nbefore: %s %q\nafter: %s %q",
				input, fp.Hash, fp.Template, fp3.Hash, fp3.Template)
		}

		// Structure sensitivity: toggling LIMIT presence is a different
		// shape.
		if stmt2.Limit >= 0 {
			stmt2.Limit = -1
		} else {
			stmt2.Limit = 7
		}
		if fp4 := stmt2.fingerprint(); fp4.Hash == fp.Hash {
			t.Fatalf("LIMIT-presence toggle did not change fingerprint for %q (template %q)", input, fp.Template)
		}
	})
}

// TestFingerprintFuzzCorpus runs the fuzz property over the seed corpus
// in a plain test so `go test` exercises it without -fuzz.
func TestFingerprintFuzzCorpus(t *testing.T) {
	for _, sql := range fuzzSeedCorpus {
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("seed %q failed to parse: %v", sql, err)
		}
		fp := stmt.Fingerprint()
		stmt2, err := Parse(stmt.String())
		if err != nil {
			t.Fatalf("seed %q canonical does not re-parse: %v", sql, err)
		}
		if fp2 := stmt2.Fingerprint(); fp2.Hash != fp.Hash {
			t.Fatalf("seed %q fingerprint unstable: %s vs %s", sql, fp.Hash, fp2.Hash)
		}
		mutateLiterals(stmt2)
		if fp3 := stmt2.fingerprint(); fp3.Hash != fp.Hash {
			t.Fatalf("seed %q literal mutation moved fingerprint: %s vs %s (%q vs %q)",
				sql, fp.Hash, fp3.Hash, fp.Template, fp3.Template)
		}
	}
}
