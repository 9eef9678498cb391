package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	aqp "repro"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
)

// marshalReply is the reflective reference for appendReply: resp with its
// rows boxed into interfaces and its items as ItemJSON, through
// json.Marshal, plus the newline json.Encoder writes.
func marshalReply(resp *QueryResponse, res *core.Result) ([]byte, error) {
	full := *resp
	full.Rows = make([][]any, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]any, len(row))
		for j, v := range row {
			switch {
			case v.IsNull():
			case v.Typ == storage.TypeInt64:
				cells[j] = v.I
			case v.Typ == storage.TypeFloat64:
				cells[j] = v.F
			case v.Typ == storage.TypeBool:
				cells[j] = v.B
			default:
				cells[j] = v.S
			}
		}
		full.Rows[i] = cells
	}
	if len(res.Items) > 0 {
		full.Items = make([][]ItemJSON, len(res.Items))
		for i, items := range res.Items {
			enc := make([]ItemJSON, len(items))
			for j, it := range items {
				enc[j] = ItemJSON{Name: it.Name, IsAggregate: it.IsAggregate, HasCI: it.HasCI}
				if it.HasCI {
					enc[j].CILo, enc[j].CIHi = it.CI.Lo, it.CI.Hi
					enc[j].Confidence, enc[j].RelHalfWidth = it.CI.Confidence, it.RelHalfWidth
				}
			}
			full.Items[i] = enc
		}
	}
	b, err := json.Marshal(&full)
	return append(b, '\n'), err
}

// replyCase builds a result over the given floats and strings: every
// float as a cell and as each CI field, every string as a column name, a
// cell, a message and the fingerprint. flags turns on items, messages,
// shards, a trace and a contract, one bit each; the same bits vary the
// envelope's booleans and degraded_from.
func replyCase(floats []float64, strs []string, flags uint8) (*QueryResponse, *core.Result) {
	res := &core.Result{
		Technique: core.TechniqueOnline,
		Guarantee: core.GuaranteeAPosteriori,
		Spec:      core.ErrorSpec{RelError: 0.05, Confidence: 0.95},
	}
	res.Diagnostics.Latency = 1234567 * time.Nanosecond
	res.Diagnostics.Counters.RowsScanned = 1 << 53
	res.Diagnostics.SampleFraction = 0.1
	res.Diagnostics.Workers = 2
	var row []storage.Value
	var items []core.ItemResult
	for i, f := range floats {
		res.Columns = append(res.Columns, "f")
		row = append(row, storage.Float64(f))
		items = append(items, core.ItemResult{Name: "f", IsAggregate: true, HasCI: i%2 == 0,
			CI: stats.Interval{Lo: f, Hi: -f, Confidence: f}, RelHalfWidth: f})
	}
	for _, s := range strs {
		res.Columns = append(res.Columns, s)
		row = append(row, storage.Str(s))
		items = append(items, core.ItemResult{Name: s})
		res.Diagnostics.Fingerprint = s
	}
	row = append(row, storage.Int64(math.MinInt64), storage.Bool(true), storage.NullValue(storage.TypeFloat64))
	res.Columns = append(res.Columns, "i", "b", "null")
	items = append(items, core.ItemResult{Name: "i"}, core.ItemResult{Name: "b"}, core.ItemResult{Name: "null"})
	res.Rows = [][]storage.Value{row, row[:1], {}}
	if flags&1 != 0 {
		res.Items = [][]core.ItemResult{items, items[:1], {}}
	}
	if flags&2 != 0 {
		res.Diagnostics.Messages = append([]string{"note"}, strs...)
	}
	if flags&4 != 0 {
		res.Diagnostics.Shards = &core.ShardExecSummary{Table: "t", Count: 4, Key: "hash(id)/4",
			RowsPerShard: []int{1, 2, 3, 4}, Degraded: []int{2}, Extrapolated: true, CoverageFraction: 0.75}
	}
	if flags&16 != 0 {
		res.Diagnostics.Contract = &contract.Summary{TargetRelError: 0.05, Confidence: 0.95,
			Verdict: contract.VerdictMet, Reason: "<&>", ShardFractions: []float64{1e-7, 0.5}}
	}
	res.Diagnostics.Partial = flags&1 != 0
	res.Diagnostics.Degraded = flags&2 != 0
	res.Diagnostics.SpecSatisfied = flags&4 == 0
	resp := encodeResult(res)
	if flags&8 != 0 {
		resp.DegradedFrom = "exact"
		resp.TraceID = "0af7651916cd43dd8448eb211c80319c"
		resp.Trace = &trace.Profile{Name: "query", DurationMS: 0.25, TraceID: resp.TraceID,
			Attrs:    []trace.Attr{{Key: "sql", Value: "a < b & c"}},
			Children: []*trace.Profile{{Name: "scan", RowsIn: 10, RowsOut: 3}}}
	}
	return resp, res
}

var (
	replyFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-7, -1e-7, 1e-6, 9.99999e-7, 1e20, 1e21, -1e21,
		123456789012345678, 1 << 53, 1<<53 + 1, math.MaxFloat64, math.SmallestNonzeroFloat64,
		2.2250738585072014e-308, 5e-324 * 3, 25.538044, 8801734124.743196, 1.5e300, 3e-10,
	}
	replyStrings = []string{
		"", "l_quantity", "<script>&</script>", "quote\" back\\slash", "\b\f\n\r\t\x00\x01\x1f\x7f",
		"café 日本", "\u2028\u2029", "bad \xff\xfe utf8 \xc3", "emoji \U0001F600", "\xed\xa0\x80",
	}
)

// TestReplyMatchesMarshal holds appendReply to the reflective encoding
// byte for byte, over tricky floats and strings and with each optional
// block on and off.
func TestReplyMatchesMarshal(t *testing.T) {
	for flags := uint8(0); flags < 32; flags++ {
		resp, res := replyCase(replyFloats, replyStrings, flags)
		got, err := appendReply(nil, resp, res)
		if err != nil {
			t.Fatal(err)
		}
		want, err := marshalReply(resp, res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("flags %05b: reply differs from json.Marshal\n got %s\nwant %s", flags, got, want)
		}
	}
	// A result with no columns and no rows: columns is null, rows is [].
	res := &core.Result{}
	got, _ := appendReply(nil, encodeResult(res), res)
	want, _ := marshalReply(encodeResult(res), res)
	if !bytes.Equal(got, want) {
		t.Fatalf("empty result: got %s want %s", got, want)
	}
}

// TestReplyNonFinite: a non-finite float, which json.Marshal refuses, is
// written as a string, in a cell, in a CI field and in the envelope, and
// the reply stays valid JSON.
func TestReplyNonFinite(t *testing.T) {
	resp, res := replyCase([]float64{math.Inf(1), math.NaN(), math.Inf(-1)}, nil, 1)
	resp.SampleFraction = math.NaN()
	got, err := appendReply(nil, resp, res)
	if err != nil {
		t.Fatal(err)
	}
	var dec struct {
		Rows           [][]any            `json:"rows"`
		Items          [][]map[string]any `json:"items"`
		SampleFraction any                `json:"sample_fraction"`
	}
	if err := json.Unmarshal(got, &dec); err != nil {
		t.Fatalf("reply is not JSON: %v: %s", err, got)
	}
	if c := dec.Rows[0]; c[0] != "+Inf" || c[1] != "NaN" || c[2] != "-Inf" {
		t.Errorf("cells %v, want +Inf NaN -Inf", c[:3])
	}
	if it := dec.Items[0][0]; it["ci_lo"] != "+Inf" || it["ci_hi"] != "-Inf" || it["rel_half_width"] != "+Inf" {
		t.Errorf("CI fields %v", it)
	}
	if dec.SampleFraction != "NaN" {
		t.Errorf("sample_fraction %v, want NaN", dec.SampleFraction)
	}
	// A non-finite float inside the contract block is json.Marshal's to
	// refuse: the encoder returns its error.
	res.Diagnostics.Contract = &contract.Summary{RealizedRelError: math.Inf(1)}
	if _, err := appendReply(nil, encodeResult(res), res); err == nil {
		t.Error("a non-finite contract field encoded without error")
	}
}

// FuzzQueryReply: for any floats and strings, a finite reply is
// json.Marshal's bytes, and any reply is valid JSON.
func FuzzQueryReply(f *testing.F) {
	f.Add(0.0, math.Copysign(0, -1), 1e-7, "<>&", "\u2028", uint8(31))
	f.Add(1e21, 5e-324, float64(1<<53), "\x00\xff", "café", uint8(0))
	f.Add(math.Inf(1), math.NaN(), 1.0, "", "\x7f\"\\", uint8(1))
	f.Fuzz(func(t *testing.T, a, b, c float64, s1, s2 string, flags uint8) {
		resp, res := replyCase([]float64{a, b, c}, []string{s1, s2}, flags&31)
		got, err := appendReply(nil, resp, res)
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(got) {
			t.Fatalf("reply is not JSON: %s", got)
		}
		for _, v := range []float64{a, b, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		want, err := marshalReply(resp, res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("reply differs from json.Marshal\n got %s\nwant %s", got, want)
		}
	})
}

// TestNonFiniteAnswerServed: a SUM over a float column holding ±Inf is a
// 200 whose body is valid JSON, for a global and a grouped statement: an
// infinite value, infinite CI bounds and a NaN (+Inf and -Inf in one
// group) each read as their string.
func TestNonFiniteAnswerServed(t *testing.T) {
	db := aqp.New()
	tbl, err := db.CreateTable("h", aqp.Schema{{Name: "g", Type: aqp.TypeString}, {Name: "x", Type: aqp.TypeFloat64}})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]aqp.Value
	for i := 0; i < 1000; i++ {
		x := float64(i)
		switch i {
		case 7:
			x = math.Inf(1)
		case 9:
			x = math.Inf(-1)
		}
		rows = append(rows, []aqp.Value{aqp.Str([]string{"a", "b"}[i%2]), aqp.Float64(x)})
	}
	if err := tbl.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	h := New(db, Config{}).Handler()
	type reply struct {
		Rows  [][]any            `json:"rows"`
		Items [][]map[string]any `json:"items"`
	}
	serve := func(sql string) reply {
		t.Helper()
		body, _ := json.Marshal(QueryRequest{SQL: sql, Mode: "exact"})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		var r reply
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &r) != nil {
			t.Fatalf("%s: status %d, body %q", sql, rec.Code, rec.Body.String())
		}
		return r
	}
	r := serve("SELECT SUM(x) FROM h WHERE x > 0")
	if got := r.Rows[0][0]; got != "+Inf" {
		t.Errorf("global SUM %v, want +Inf", got)
	}
	if it := r.Items[0][0]; it["ci_lo"] != "+Inf" || it["ci_hi"] != "+Inf" || it["rel_half_width"] != "NaN" {
		t.Errorf("global CI %v, want bounds +Inf and relative half-width NaN", it)
	}
	r = serve("SELECT g, SUM(x) FROM h GROUP BY g ORDER BY g")
	if a, b := r.Rows[0][1], r.Rows[1][1]; a != float64(249500) || b != "NaN" {
		t.Errorf("grouped SUMs %v and %v, want 249500 and NaN", a, b)
	}
}

// TestWriteJSONRefusalIs500: a body encoding/json refuses is answered
// with a 500 that says why, not with an empty 200.
func TestWriteJSONRefusalIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"p99": math.NaN()})
	var e ErrorResponse
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
		t.Fatalf("status %d, body %q", rec.Code, rec.Body.String())
	}
}
