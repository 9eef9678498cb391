package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	aqp "repro"
	"repro/internal/sqlparse"
)

// TestSpecResolutionEveryMode: the accuracy target is resolved once, the
// same way in every mode — the SQL's WITH ERROR clause over the caller's
// argument over the default — through the façade's Run and RunSQL, the
// named Query* wrappers and POST /query. Before Run owned the rule,
// online / offline / ola / synopsis dropped the clause and judged
// spec_satisfied against the argument.
func TestSpecResolutionEveryMode(t *testing.T) {
	db := buildDB(t, 20000)
	if err := db.BuildSynopsis("t", "x"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db, Config{}).Handler())
	defer ts.Close()

	const clause = " WITH ERROR 1% CONFIDENCE 90%"
	inClause := aqp.ErrorSpec{RelError: 0.01, Confidence: 0.9}
	arg := aqp.ErrorSpec{RelError: 0.2, Confidence: 0.8}
	ctx := context.Background()
	wrappers := map[aqp.Mode]func(ctx context.Context, sql string, spec aqp.ErrorSpec) (*aqp.Result, error){
		aqp.ModeAuto: func(_ context.Context, sql string, spec aqp.ErrorSpec) (*aqp.Result, error) {
			return db.QueryApprox(sql, spec)
		},
		aqp.ModeOnline:  db.QueryOnlineContext,
		aqp.ModeOffline: db.QueryOfflineContext,
		aqp.ModeOLA:     db.QueryOLAContext,
	}
	for _, mode := range aqp.Modes {
		sql := "SELECT SUM(x) AS s FROM t"
		if mode == aqp.ModeSynopsis {
			sql = "SELECT COUNT(*) AS n FROM t WHERE x BETWEEN 10 AND 60"
		}
		for _, contract := range []bool{false, true} {
			if contract && mode != aqp.ModeOnline && mode != aqp.ModeOLA && mode != aqp.ModeOffline {
				continue
			}
			for _, c := range []struct {
				name string
				sql  string
				arg  aqp.ErrorSpec
				want aqp.ErrorSpec
			}{
				{"clause-over-argument", sql + clause, arg, inClause},
				{"argument", sql, arg, arg},
				{"default", sql, aqp.ErrorSpec{}, aqp.DefaultErrorSpec},
			} {
				name := string(mode) + "/" + c.name
				if contract {
					name += "/contract"
				}
				stmt, err := sqlparse.Parse(c.sql)
				if err != nil {
					t.Fatal(err)
				}
				req := aqp.Request{Mode: mode, Spec: c.arg, Contract: contract}
				res, err := db.Run(ctx, stmt, req)
				if err != nil {
					t.Fatalf("%s: Run: %v", name, err)
				}
				if res.Spec != c.want {
					t.Errorf("%s: Run judged against %+v, want %+v", name, res.Spec, c.want)
				}
				if res, err = db.RunSQL(ctx, c.sql, req); err != nil {
					t.Fatalf("%s: RunSQL: %v", name, err)
				}
				if res.Spec != c.want {
					t.Errorf("%s: RunSQL judged against %+v, want %+v", name, res.Spec, c.want)
				}
				if w := wrappers[mode]; w != nil && !contract {
					res, err := w(ctx, c.sql, c.arg)
					if err != nil {
						t.Fatalf("%s: wrapper: %v", name, err)
					}
					if res.Spec != c.want {
						t.Errorf("%s: wrapper judged against %+v, want %+v", name, res.Spec, c.want)
					}
				}
				resp, ok, bad := postQuery(t, ts.URL, QueryRequest{SQL: c.sql, Mode: string(mode),
					RelError: c.arg.RelError, Confidence: c.arg.Confidence, Contract: contract})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: POST /query: %d %s", name, resp.StatusCode, bad.Error)
				}
				if got := (aqp.ErrorSpec{RelError: ok.RelError, Confidence: ok.ConfSpec}); got != c.want {
					t.Errorf("%s: POST /query judged against %+v, want %+v", name, got, c.want)
				}
			}
		}
	}
}
