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

func TestSpanExporterRingAndFeed(t *testing.T) {
	e := NewSpanExporter("aqpd-test")
	for i := 0; i < spanRingCap/2+1; i++ {
		e.Export(buildProfile(t)) // 2 spans each
	}
	spans := e.Spans()
	if len(spans) != spanRingCap {
		t.Fatalf("ring retained %d spans, want %d", len(spans), spanRingCap)
	}

	feed := e.Feed()
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

func TestSpanExporterNilSafe(t *testing.T) {
	var e *SpanExporter
	e.Export(nil)
	if e.Spans() != nil {
		t.Fatal("nil exporter returned spans")
	}
	if len(e.Feed().ResourceSpans) != 1 {
		t.Fatal("nil exporter feed malformed")
	}
}
