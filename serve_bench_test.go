package aqp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	aqp "repro"
	"repro/internal/server"
	"repro/internal/workload"
)

// BenchmarkServeQuery measures the fixed cost of one served answer: a POST
// /query through aqpd's in-process handler — request decode, parse, plan,
// execution, the post-serve observers and the reply encoding — on the
// short.armed workload's dimension-table statements, over the bench's star
// (250k lineitem rows, seed 1, skew 1), with telemetry off and on, and
// with telemetry on and the span tree asked for ("trace": true). The
// one-row reply is a global aggregate; the 25-group reply is one row per
// nation. It reports the reply's size as reply_bytes.
func BenchmarkServeQuery(b *testing.B) {
	star, err := workload.GenerateStar(workload.Config{Seed: 1, LineitemRows: 250_000, Skew: 1})
	if err != nil {
		b.Fatal(err)
	}
	stmts := []struct{ name, sql string }{
		{"one-row", "SELECT COUNT(*) AS n, SUM(s_acctbal) AS bal FROM supplier WHERE s_acctbal < 2000"},
		{"25-group", "SELECT s_nationkey, COUNT(*) AS n, AVG(s_acctbal) AS bal FROM supplier GROUP BY s_nationkey ORDER BY s_nationkey"},
	}
	for _, tel := range []struct {
		name      string
		on, trace bool
	}{{"telemetry=off", false, false}, {"telemetry=on", true, false}, {"trace", true, true}} {
		srv := server.New(aqp.Open(star.Catalog), server.Config{Workers: 2, Telemetry: tel.on})
		h := srv.Handler()
		for _, st := range stmts {
			body, err := json.Marshal(server.QueryRequest{SQL: st.sql, Mode: "exact", Trace: tel.trace})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(st.name+"/"+tel.name, func(b *testing.B) {
				b.ReportAllocs()
				var size int
				for i := 0; i < b.N; i++ {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
					if rec.Code != http.StatusOK {
						b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
					}
					size = rec.Body.Len()
				}
				b.ReportMetric(float64(size), "reply_bytes")
			})
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
