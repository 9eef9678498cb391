package telemetry

import (
	"strconv"

	"repro/internal/trace"
)

// OTLP-shaped JSON span export. The types mirror the OTLP/JSON trace
// payload (opentelemetry-proto trace service) closely enough that a
// collector-compatible ingester can read the feed: hex trace/span IDs,
// string-encoded unix-nano timestamps, attribute key/value envelopes.
// There is no OTLP client dependency and no span store of its own: the
// feed served at /debug/spans is rendered, when read, from the span trees
// the flight recorder keeps.

// OTLPValue is an OTLP AnyValue restricted to strings (span attrs are
// strings throughout this repo).
type OTLPValue struct {
	StringValue string `json:"stringValue"`
}

// OTLPAttr is one OTLP attribute.
type OTLPAttr struct {
	Key   string    `json:"key"`
	Value OTLPValue `json:"value"`
}

// OTLPSpan is one exported span.
type OTLPSpan struct {
	TraceID      string `json:"traceId"`
	SpanID       string `json:"spanId"`
	ParentSpanID string `json:"parentSpanId,omitempty"`
	Name         string `json:"name"`
	// Kind: 2 = SPAN_KIND_SERVER (query roots), 1 = SPAN_KIND_INTERNAL.
	Kind              int        `json:"kind"`
	StartTimeUnixNano string     `json:"startTimeUnixNano"`
	EndTimeUnixNano   string     `json:"endTimeUnixNano"`
	Attributes        []OTLPAttr `json:"attributes,omitempty"`
}

// OTLPFeed is the top-level OTLP/JSON trace payload shape.
type OTLPFeed struct {
	ResourceSpans []OTLPResourceSpans `json:"resourceSpans"`
}

// OTLPResourceSpans groups spans under one resource.
type OTLPResourceSpans struct {
	Resource   OTLPResource     `json:"resource"`
	ScopeSpans []OTLPScopeSpans `json:"scopeSpans"`
}

// OTLPResource identifies the emitting service.
type OTLPResource struct {
	Attributes []OTLPAttr `json:"attributes,omitempty"`
}

// OTLPScopeSpans groups spans under one instrumentation scope.
type OTLPScopeSpans struct {
	Scope OTLPScope  `json:"scope"`
	Spans []OTLPSpan `json:"spans"`
}

// OTLPScope names the instrumentation scope.
type OTLPScope struct {
	Name string `json:"name"`
}

// FlattenProfile converts a span-tree Profile into flat OTLP spans
// (pre-order). Nodes without trace identity (snapshots taken outside a
// tracer) are skipped — OTLP requires valid IDs.
func FlattenProfile(p *trace.Profile) []OTLPSpan {
	var out []OTLPSpan
	flattenInto(p, true, &out)
	return out
}

func flattenInto(p *trace.Profile, root bool, out *[]OTLPSpan) {
	if p == nil {
		return
	}
	if p.TraceID != "" && p.SpanID != "" {
		kind := 1
		if root {
			kind = 2
		}
		start := p.StartUnixNano
		end := start + int64(p.DurationMS*1e6)
		sp := OTLPSpan{
			TraceID:           p.TraceID,
			SpanID:            p.SpanID,
			ParentSpanID:      p.ParentSpanID,
			Name:              p.Name,
			Kind:              kind,
			StartTimeUnixNano: strconv.FormatInt(start, 10),
			EndTimeUnixNano:   strconv.FormatInt(end, 10),
		}
		if p.RowsIn > 0 {
			sp.Attributes = append(sp.Attributes, OTLPAttr{Key: "rows.in", Value: OTLPValue{strconv.FormatInt(p.RowsIn, 10)}})
		}
		if p.RowsOut > 0 {
			sp.Attributes = append(sp.Attributes, OTLPAttr{Key: "rows.out", Value: OTLPValue{strconv.FormatInt(p.RowsOut, 10)}})
		}
		for _, a := range p.Attrs {
			sp.Attributes = append(sp.Attributes, OTLPAttr{Key: a.Key, Value: OTLPValue{a.Value}})
		}
		*out = append(*out, sp)
	}
	for _, c := range p.Children {
		flattenInto(c, false, out)
	}
}

// Feed wraps the span trees of the given records, in order, in the OTLP/JSON
// envelope of the named service. /debug/spans serves it over the flight
// recorder's bundle, so the feed holds exactly the recorder's queries.
func Feed(service string, queries []QueryRecord) OTLPFeed {
	spans := []OTLPSpan{}
	for _, qr := range queries {
		spans = append(spans, FlattenProfile(qr.Spans)...)
	}
	return OTLPFeed{ResourceSpans: []OTLPResourceSpans{{
		Resource: OTLPResource{Attributes: []OTLPAttr{{Key: "service.name", Value: OTLPValue{service}}}},
		ScopeSpans: []OTLPScopeSpans{{
			Scope: OTLPScope{Name: "repro/internal/trace"},
			Spans: spans,
		}},
	}}}
}
