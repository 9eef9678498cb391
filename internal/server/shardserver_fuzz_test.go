package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/exec"
	"repro/internal/shard"
	"repro/internal/sqlparse"
)

// FuzzShardEstimateRequest sends arbitrary bodies through the shard
// server's estimate handler, the JSON decoder another process feeds. Its
// sampler spec reaches the sampler itself — a uniform one keys the
// process-wide memo of kept rows — so no body may panic the handler, one
// that fails to decode, parse or plan against the shard (an invalid
// sampler spec included) must be refused with a 4xx, never a 5xx the
// client would retry, and a 200 must carry a decodable partial.
func FuzzShardEstimateRequest(f *testing.F) {
	db := buildDB(f, 2_000)
	tbl, err := db.Table("t")
	if err != nil {
		f.Fatal(err)
	}
	h := NewShardServer(tbl, ShardServerConfig{Table: "t", Workers: 2}).Handler()
	for _, body := range []string{
		`{"v":2,"table":"t","sql":"SELECT COUNT(*) FROM t"}`,
		`{"v":2,"table":"t","sql":"SELECT SUM(x), AVG(x) FROM t WHERE id > 10","sample":{"Kind":1,"Rate":0.3,"Seed":7}}`,
		`{"v":2,"table":"t","sql":"SELECT g, COUNT(*) FROM t GROUP BY g","sample":{"Kind":3,"Rate":0.2,"KeyColumns":["g"],"KeepThreshold":5,"Seed":1}}`,
		`{"v":2,"table":"t","sql":"SELECT SUM(x) FROM t","sample":{"Kind":5,"Rate":0.5,"RowRate":0.5,"Seed":3},"workers":9}`,
		`{"v":2,"table":"t","sql":"SELECT SUM(x) FROM t","sample":{"Kind":1,"Rate":7}}`,
		`{"v":2,"table":"t","sql":"SELECT SUM(x) FROM t","sample":{"Kind":1,"Rate":-0}}`,
		`{"v":2,"table":"t","sql":"SELECT SUM(x) FROM t","sample":{"Kind":42,"Rate":0.5}}`,
		`{"v":2,"table":"t","sql":"SELECT SUM(x) FROM t","sample":{"Kind":4,"Rate":0.5,"KeyColumns":["nope"]}}`,
		`{"v":2,"table":"t","sql":"SELECT x FROM t"}`,
		`{"v":2,"table":"t","sql":"SELEC"}`,
		`{"v":1,"table":"t","sql":"SELECT COUNT(*) FROM t"}`,
		``, `{`, `null`, `[]`, `{"sample":[]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/shard/estimate", bytes.NewReader(body)))

		var req shard.EstimateRequest
		bad := json.Unmarshal(body, &req) != nil || req.V != shard.WireVersion || req.Table != "t"
		if !bad {
			stmt, err := sqlparse.Parse(req.SQL)
			if bad = err != nil; !bad {
				_, err = shard.BuildShardQueryPlan(shard.Query{Stmt: stmt, Sample: req.Sample}, tbl)
				bad = err != nil
			}
		}
		switch code := rec.Code; {
		case bad && (code < 400 || code >= 500):
			t.Fatalf("a body that does not decode, parse or plan got HTTP %d, want 4xx: %q\n%s", code, body, rec.Body)
		case code == http.StatusOK:
			if _, err := exec.DecodeAggPartialWire(rec.Body.Bytes()); err != nil {
				t.Fatalf("a 200 body is not a partial: %v", err)
			}
		}
	})
}
