package trace

import (
	"strings"
	"testing"
)

func TestNewTraceIDNonZeroAndDistinct(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a.IsZero() || b.IsZero() {
		t.Fatal("zero trace ID generated")
	}
	if a == b {
		t.Fatal("two trace IDs collided")
	}
	if len(a.String()) != 32 {
		t.Fatalf("trace ID hex width %d, want 32", len(a.String()))
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tid := NewTraceID()
	tr := NewWithParent("query", tid, SpanID{})
	h := tr.Root().Traceparent()
	if !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") || len(h) != 55 {
		t.Fatalf("traceparent %q malformed", h)
	}
	gotTid, gotSid, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("own traceparent %q did not parse", h)
	}
	if gotTid != tid {
		t.Fatalf("trace ID did not round-trip: %s != %s", gotTid, tid)
	}
	if gotSid != tr.Root().SpanID() {
		t.Fatal("span ID did not round-trip")
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span id
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e47XX-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", // v00 must be exactly 55
		"00+4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent accepted %q", h)
		}
	}
	// A later version with trailing fields is accepted (forward compat).
	if _, _, ok := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future"); !ok {
		t.Error("future version with extension rejected")
	}
}

func TestNewWithParentJoinsTrace(t *testing.T) {
	remoteTid, remoteSid, _ := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	tr := NewWithParent("query", remoteTid, remoteSid)
	if tr.TraceID() != remoteTid.String() {
		t.Fatal("tracer did not adopt the remote trace ID")
	}
	p := tr.Profile()
	if p.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("profile trace ID %s", p.TraceID)
	}
	if p.ParentSpanID != "00f067aa0ba902b7" {
		t.Fatalf("root parent %s, want the remote span", p.ParentSpanID)
	}
	// Zero trace ID falls back to a fresh one.
	if NewWithParent("q", TraceID{}, SpanID{}).TraceID() == (TraceID{}).String() {
		t.Fatal("zero trace ID not replaced")
	}
}

func TestSpanIDsUniqueWithinTrace(t *testing.T) {
	tr := New("query")
	ids := map[SpanID]bool{tr.Root().SpanID(): true}
	sp := tr.Root()
	for i := 0; i < 100; i++ {
		c := sp.NewChild("c")
		id := c.SpanID()
		if id.IsZero() {
			t.Fatal("zero span ID assigned")
		}
		if ids[id] {
			t.Fatalf("span ID collision at %d", i)
		}
		ids[id] = true
	}
	// Profile threads parent IDs down the tree.
	child := tr.Root().StartChild("child")
	grand := child.StartChild("grand")
	_ = grand
	p := tr.Profile()
	var check func(p *Profile)
	check = func(p *Profile) {
		for _, c := range p.Children {
			if c.ParentSpanID != p.SpanID {
				t.Fatalf("child %s parent %s, want %s", c.Name, c.ParentSpanID, p.SpanID)
			}
			check(c)
		}
	}
	check(p)
}

func TestUntracedSpanHasNoIdentity(t *testing.T) {
	var sp *Span
	if sp.Traceparent() != "" || sp.TraceID() != "" || !sp.SpanID().IsZero() {
		t.Fatal("nil span leaked identity")
	}
}
