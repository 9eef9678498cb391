package telemetry

import (
	"strconv"
	"sync"

	"repro/internal/stats"
	"repro/internal/trace"
)

// OTLP-shaped JSON span export. The types mirror the OTLP/JSON trace
// payload (opentelemetry-proto trace service) closely enough that a
// collector-compatible ingester can read the feed: hex trace/span IDs,
// string-encoded unix-nano timestamps, attribute key/value envelopes.
// There is no OTLP client dependency — the feed is plain marshaled JSON
// served at /debug/spans.

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

// spanRingCap is how many of the most recent spans /debug/spans keeps.
const spanRingCap = 1024

// SpanExporter is a bounded ring of exported spans feeding /debug/spans.
type SpanExporter struct {
	mu  sync.Mutex
	buf *stats.Ring[OTLPSpan]

	service string
}

// NewSpanExporter builds an exporter retaining the last spanRingCap spans
// emitted by the named service.
func NewSpanExporter(service string) *SpanExporter {
	return &SpanExporter{buf: stats.NewRing[OTLPSpan](spanRingCap), service: service}
}

// Export flattens one query's profile into the ring.
func (e *SpanExporter) Export(p *trace.Profile) {
	if e == nil || p == nil {
		return
	}
	spans := FlattenProfile(p)
	e.mu.Lock()
	for _, sp := range spans {
		e.buf.Push(sp)
	}
	e.mu.Unlock()
}

// Spans returns the retained spans, oldest first.
func (e *SpanExporter) Spans() []OTLPSpan {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.buf.AppendTo(make([]OTLPSpan, 0, e.buf.N()))
}

// Feed wraps the retained spans in the OTLP/JSON envelope.
func (e *SpanExporter) Feed() OTLPFeed {
	spans, service := []OTLPSpan{}, ""
	if e != nil {
		spans, service = e.Spans(), e.service
	}
	return OTLPFeed{ResourceSpans: []OTLPResourceSpans{{
		Resource: OTLPResource{Attributes: []OTLPAttr{{Key: "service.name", Value: OTLPValue{service}}}},
		ScopeSpans: []OTLPScopeSpans{{
			Scope: OTLPScope{Name: "repro/internal/trace"},
			Spans: spans,
		}},
	}}}
}
