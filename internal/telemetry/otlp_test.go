package telemetry

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/trace"
)

func buildProfile(t *testing.T) *trace.Profile {
	t.Helper()
	tr := trace.New("query")
	child := tr.Root().StartChild("engine exact")
	child.AddRows(100)
	child.SetAttr("workers", "4")
	child.End()
	return tr.Profile()
}

func TestFlattenProfile(t *testing.T) {
	p := buildProfile(t)
	spans := FlattenProfile(p)
	if len(spans) != 2 {
		t.Fatalf("flattened %d spans, want 2", len(spans))
	}
	root, child := spans[0], spans[1]
	if root.Kind != 2 || child.Kind != 1 {
		t.Fatalf("kinds = %d, %d; want 2 (server), 1 (internal)", root.Kind, child.Kind)
	}
	if root.TraceID != child.TraceID {
		t.Fatal("trace IDs differ within one query")
	}
	if len(root.TraceID) != 32 || len(root.SpanID) != 16 {
		t.Fatalf("ID widths: trace %d span %d", len(root.TraceID), len(root.SpanID))
	}
	if child.ParentSpanID != root.SpanID {
		t.Fatalf("child parent = %s, want root span %s", child.ParentSpanID, root.SpanID)
	}
	if child.StartTimeUnixNano == "" || child.StartTimeUnixNano == "0" {
		t.Fatal("child missing start time")
	}
	var rowsOut, workers string
	for _, a := range child.Attributes {
		switch a.Key {
		case "rows.out":
			rowsOut = a.Value.StringValue
		case "workers":
			workers = a.Value.StringValue
		}
	}
	if rowsOut != "100" || workers != "4" {
		t.Fatalf("attrs rows.out=%q workers=%q", rowsOut, workers)
	}
}

func TestFlattenSkipsIdentityless(t *testing.T) {
	// A hand-built profile with no IDs must be skipped, not exported with
	// empty IDs.
	p := &trace.Profile{Name: "anon", DurationMS: 1}
	if spans := FlattenProfile(p); len(spans) != 0 {
		t.Fatalf("exported %d identity-less spans", len(spans))
	}
}

// TestFeedEnvelope: the feed renders each record's span tree, in record
// order, inside the OTLP/JSON envelope of the named service.
func TestFeedEnvelope(t *testing.T) {
	r := NewRecorder(RecorderConfig{Queries: 4})
	var want []string
	for i := 0; i < 3; i++ {
		tr := trace.New("query")
		tr.Root().StartChild("engine exact").End()
		tr.Finish()
		r.Record(QueryRecord{SQL: "q", Status: 200, Trace: tr})
		want = append(want, tr.TraceID())
	}
	r.Record(QueryRecord{SQL: "untraced", Status: 200})

	feed := Feed("aqpd-test", r.Snapshot("test").Queries)
	spans := feed.ResourceSpans[0].ScopeSpans[0].Spans
	if len(spans) != 6 {
		t.Fatalf("feed holds %d spans, want 6", len(spans))
	}
	for i, sp := range spans {
		if sp.TraceID != want[i/2] {
			t.Fatalf("span %d trace %s, want %s", i, sp.TraceID, want[i/2])
		}
	}
	b, err := json.Marshal(feed)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"resourceSpans"`, `"scopeSpans"`, `"traceId"`, `"spanId"`,
		`"startTimeUnixNano"`, `"service.name"`, `"aqpd-test"`} {
		if !strings.Contains(s, want) {
			t.Errorf("feed JSON missing %s", want)
		}
	}
}

// TestFeedEmptyRecorder: a recorder with no queries serves an empty span
// list, not null.
func TestFeedEmptyRecorder(t *testing.T) {
	b, err := json.Marshal(Feed("aqpd", NewRecorder(RecorderConfig{}).Snapshot("test").Queries))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"spans":[]`) {
		t.Fatalf("empty feed: %s", b)
	}
}
