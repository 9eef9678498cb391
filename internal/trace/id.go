package trace

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"time"

	"repro/internal/stats"
)

// TraceID is a W3C trace-context 128-bit trace identifier.
type TraceID [16]byte

// String returns the 32-char lowercase hex form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// SpanID is a W3C trace-context 64-bit span identifier.
type SpanID [8]byte

// String returns the 16-char lowercase hex form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// NewTraceID returns a random, non-zero trace ID. crypto/rand failure
// (never seen in practice) falls back to a time-derived value rather
// than panicking inside query handling.
func NewTraceID() TraceID {
	var t TraceID
	if _, err := rand.Read(t[:]); err != nil || t.IsZero() {
		now := uint64(time.Now().UnixNano())
		binary.BigEndian.PutUint64(t[:8], stats.SplitMix64(now))
		binary.BigEndian.PutUint64(t[8:], stats.SplitMix64(now+1))
	}
	return t
}

// ParseTraceparent parses a W3C traceparent header. It accepts any
// known-layout version (two hex chars other than "ff") and rejects
// malformed lengths, non-hex fields, and all-zero IDs, per the spec.
func ParseTraceparent(h string) (TraceID, SpanID, bool) {
	var tid TraceID
	var sid SpanID
	if len(h) < 55 {
		return tid, sid, false
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return tid, sid, false
	}
	ver := h[:2]
	if !isHex(ver) || ver == "ff" {
		return tid, sid, false
	}
	// Version 00 is exactly 55 chars; later versions may append fields
	// after another dash.
	if len(h) > 55 && (ver == "00" || h[55] != '-') {
		return tid, sid, false
	}
	if _, err := hex.Decode(tid[:], []byte(h[3:35])); err != nil {
		return tid, sid, false
	}
	if _, err := hex.Decode(sid[:], []byte(h[36:52])); err != nil {
		return tid, sid, false
	}
	if !isHex(h[53:55]) || tid.IsZero() || sid.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return tid, sid, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}
