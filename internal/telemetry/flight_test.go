package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestRecorderKeepReasons(t *testing.T) {
	r := NewRecorder(RecorderConfig{Queries: 8})
	t0 := time.Unix(1000, 0)

	r.Record(QueryRecord{Start: t0, SQL: "ok", Status: 200, LatencyMS: 5})
	r.Record(QueryRecord{Start: t0, SQL: "boom", Status: 500, Err: "x", LatencyMS: 5})
	r.Record(QueryRecord{Start: t0, SQL: "deg", Status: 200, Degraded: true, LatencyMS: 5})
	r.Record(QueryRecord{Start: t0, SQL: "miss", Status: 200, ContractVerdict: "missed", LatencyMS: 5})
	r.Record(QueryRecord{Start: t0, SQL: "held", Status: 200, ContractVerdict: "met", LatencyMS: 5})

	b := r.Snapshot("test")
	keeps := map[string]string{}
	for _, q := range b.Queries {
		keeps[q.SQL] = q.Keep
	}
	want := map[string]string{
		"ok":   "",
		"boom": "error",
		"deg":  "degraded",
		"miss": "contract_missed",
		"held": "",
	}
	for sql, k := range want {
		if keeps[sql] != k {
			t.Errorf("query %q keep = %q, want %q", sql, keeps[sql], k)
		}
	}
}

func TestRecorderSlowDecile(t *testing.T) {
	r := NewRecorder(RecorderConfig{Queries: 256})
	t0 := time.Unix(1000, 0)
	// 100 fast queries establish the latency distribution.
	for i := 0; i < 100; i++ {
		r.Record(QueryRecord{Start: t0, SQL: "fast", Status: 200, LatencyMS: 10})
	}
	// An outlier must be pinned as "slow".
	r.Record(QueryRecord{Start: t0, SQL: "outlier", Status: 200, LatencyMS: 500})
	b := r.Snapshot("test")
	var got string
	for _, q := range b.Queries {
		if q.SQL == "outlier" {
			got = q.Keep
		}
	}
	if got != "slow" {
		t.Fatalf("outlier keep = %q, want slow", got)
	}
	// Early queries (before 20 samples) are never pinned as slow.
	r2 := NewRecorder(RecorderConfig{Queries: 8})
	r2.Record(QueryRecord{Start: t0, SQL: "first", Status: 200, LatencyMS: 500})
	if b := r2.Snapshot("t"); b.Queries[0].Keep != "" {
		t.Fatalf("first query pinned %q before distribution warmed", b.Queries[0].Keep)
	}
}

// The slow cut is the nearest-rank p90 of the recent latencies: over
// 1…20 ms that is 18 ms, so an 18.5 ms query is in the slowest decile.
func TestRecorderSlowCutIsNearestRankP90(t *testing.T) {
	r := NewRecorder(RecorderConfig{})
	t0 := time.Unix(1000, 0)
	for ms := 1; ms <= 20; ms++ {
		r.Record(QueryRecord{Start: t0, SQL: "warm", Status: 200, LatencyMS: float64(ms)})
	}
	r.Record(QueryRecord{Start: t0, SQL: "edge", Status: 200, LatencyMS: 18.5})
	b := r.Snapshot("test")
	if got := b.Queries[len(b.Queries)-1]; got.SQL != "edge" || got.Keep != "slow" {
		t.Fatalf("last record %q keep = %q, want edge kept as slow", got.SQL, got.Keep)
	}
}

func TestRecorderNotableSurvivesRecentEviction(t *testing.T) {
	r := NewRecorder(RecorderConfig{Queries: 4})
	t0 := time.Unix(1000, 0)
	r.Record(QueryRecord{Start: t0, SQL: "bad", Status: 500, LatencyMS: 1})
	for i := 0; i < 10; i++ {
		r.Record(QueryRecord{Start: t0, SQL: "filler", Status: 200, LatencyMS: 1})
	}
	b := r.Snapshot("test")
	found := false
	for _, q := range b.Queries {
		if q.SQL == "bad" {
			found = true
		}
	}
	if !found {
		t.Fatal("errored query evicted from bundle despite always-keep")
	}
	// Bundle must be Seq-sorted and deduplicated.
	seen := map[uint64]bool{}
	for i, q := range b.Queries {
		if seen[q.Seq] {
			t.Fatalf("duplicate seq %d", q.Seq)
		}
		seen[q.Seq] = true
		if i > 0 && q.Seq <= b.Queries[i-1].Seq {
			t.Fatalf("bundle not sorted at %d", i)
		}
	}
}

func TestRecorderEventAttribution(t *testing.T) {
	r := NewRecorder(RecorderConfig{})
	t0 := time.Unix(1000, 0)
	r.AddEvent(Event{T: t0.Add(-time.Second), Kind: "fault_fire", Name: "before"})
	r.AddEvent(Event{T: t0.Add(5 * time.Millisecond), Kind: "fault_fire", Name: "during"})
	r.AddEvent(Event{T: t0.Add(time.Hour), Kind: "fault_fire", Name: "after"})
	r.Record(QueryRecord{Start: t0, SQL: "q", Status: 200, LatencyMS: 10})
	b := r.Snapshot("test")
	if len(b.Queries) != 1 {
		t.Fatalf("queries = %d", len(b.Queries))
	}
	evs := b.Queries[0].Events
	if len(evs) != 1 || evs[0].Name != "during" {
		t.Fatalf("attributed events = %+v, want exactly [during]", evs)
	}
	if len(b.Events) != 3 {
		t.Fatalf("bundle event ring has %d events, want 3", len(b.Events))
	}
}

func TestRecorderEventRingBounded(t *testing.T) {
	r := NewRecorder(RecorderConfig{Queries: 1})
	for i := 0; i < 20; i++ {
		r.AddEvent(Event{Kind: "breaker", Name: "x"})
	}
	if b := r.Snapshot("test"); len(b.Events) != 4 {
		t.Fatalf("event ring retained %d, want 4", len(b.Events))
	}
}

func TestBundleJSONRoundTrip(t *testing.T) {
	r := NewRecorder(RecorderConfig{})
	r.Record(QueryRecord{Start: time.Unix(1000, 0), SQL: "select 1", Status: 200, LatencyMS: 2})
	b := r.Snapshot("sigquit")
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Bundle
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("bundle JSON does not round-trip: %v", err)
	}
	if back.Reason != "sigquit" || len(back.Queries) != 1 {
		t.Fatalf("round-trip = %+v", back)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(QueryRecord{})
	r.AddEvent(Event{})
	if b := r.Snapshot("x"); len(b.Queries) != 0 {
		t.Fatal("nil recorder returned queries")
	}
}

// TestRecorderTraceIDAttribution: an event carrying a trace ID attaches
// only to the query with that trace, even when a concurrent bystander's
// time window overlaps it; trace-less events keep overlap attribution.
func TestRecorderTraceIDAttribution(t *testing.T) {
	r := NewRecorder(RecorderConfig{})
	t0 := time.Unix(1000, 0)
	// Two queries run concurrently over the same window; a shard event
	// fires under query A's trace, and a process-global fault fires with
	// no trace.
	r.AddEvent(Event{T: t0.Add(5 * time.Millisecond), Kind: "shard", Name: "orders", Shard: 2, TraceID: "aaa"})
	r.AddEvent(Event{T: t0.Add(6 * time.Millisecond), Kind: "fault_fire", Name: "global"})
	r.Record(QueryRecord{Start: t0, SQL: "qa", TraceID: "aaa", Status: 200, LatencyMS: 10})
	r.Record(QueryRecord{Start: t0, SQL: "qb", TraceID: "bbb", Status: 200, LatencyMS: 10})

	b := r.Snapshot("test")
	byTrace := map[string][]Event{}
	for _, q := range b.Queries {
		byTrace[q.TraceID] = q.Events
	}
	wantA := map[string]bool{"orders": true, "global": true}
	gotA := map[string]bool{}
	for _, ev := range byTrace["aaa"] {
		gotA[ev.Name] = true
	}
	if len(byTrace["aaa"]) != 2 || !gotA["orders"] || !gotA["global"] {
		t.Fatalf("query A events = %+v, want %v", byTrace["aaa"], wantA)
	}
	if len(byTrace["bbb"]) != 1 || byTrace["bbb"][0].Name != "global" {
		t.Fatalf("query B events = %+v, want only the trace-less global fault", byTrace["bbb"])
	}
}

// TestRecorderTracedEventNeverOverlapAttributed: a traced event whose
// query record never arrives (e.g. evicted) must not leak onto an
// overlapping trace-less record either.
func TestRecorderTracedEventNeverOverlapAttributed(t *testing.T) {
	r := NewRecorder(RecorderConfig{})
	t0 := time.Unix(1000, 0)
	r.AddEvent(Event{T: t0.Add(time.Millisecond), Kind: "shard", Name: "orders", TraceID: "aaa"})
	r.Record(QueryRecord{Start: t0, SQL: "untraced", Status: 200, LatencyMS: 10})
	b := r.Snapshot("test")
	if evs := b.Queries[0].Events; len(evs) != 0 {
		t.Fatalf("trace-less record got traced events %+v", evs)
	}
}
