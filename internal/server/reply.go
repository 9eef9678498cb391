package server

// The /query reply encoder.
//
// A reply is appended compact, by hand, to one byte slice: QueryResponse's
// fields in declaration order, each spelled as encoding/json spells it —
// the ES6 float format, HTML-safe string escapes, omitempty — so a reply
// whose floats are finite is byte for byte json.Marshal's plus the newline
// json.Encoder ends with. Rows and CI annotations are appended straight
// from the result's storage values and items: no reflection, no cell boxed
// into an interface. The rare nested trace and contract objects are
// appended from json.Marshal, inside the same encoder.
//
// encoding/json refuses a non-finite float; this encoder writes one as a
// JSON string instead: "NaN", "+Inf" or "-Inf". A SUM over a column holding
// +Inf is a legitimate answer, not a failed reply.

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/storage"
)

// appendReply appends resp, with res's rows and items, and a newline. Rows
// and Items of resp are not read: res supplies them.
func appendReply(b []byte, resp *QueryResponse, res *core.Result) ([]byte, error) {
	b = append(b, `{"columns":`...)
	b = appendStrings(b, resp.Columns)
	b = append(b, `,"rows":[`...)
	spans := make([]cellSpan, 0, 128) // per cell, row after row
	for i, row := range res.Rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range row {
			if j > 0 {
				b = append(b, ',')
			}
			sp := cellSpan{lo: len(b)}
			if b = appendValue(b, v); v.Typ == storage.TypeFloat64 && !v.IsNull() {
				sp.bits, sp.hi = math.Float64bits(v.F), len(b)
			}
			spans = append(spans, sp)
		}
		b = append(b, ']')
	}
	b = append(b, ']')
	if len(res.Items) > 0 {
		b = append(b, `,"items":[`...)
		for i, items := range res.Items {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			for j := range items {
				if j > 0 {
					b = append(b, ',')
				}
				var cell cellSpan // Items[i][j] is Rows[i][j]'s; the bits decide the copy anyway
				if len(spans) > 0 {
					cell, spans = spans[0], spans[1:]
				}
				b = appendItem(b, &items[j], cell)
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	b = appendStringField(b, "technique", resp.Technique)
	b = appendStringField(b, "guarantee", resp.Guarantee)
	b = appendFloatField(b, "rel_error", resp.RelError, true)
	b = appendFloatField(b, "confidence", resp.ConfSpec, true)
	b = appendBoolField(b, "partial", resp.Partial, false)
	b = appendBoolField(b, "degraded", resp.Degraded, true)
	if resp.DegradedFrom != "" {
		b = appendStringField(b, "degraded_from", resp.DegradedFrom)
	}
	b = appendBoolField(b, "spec_satisfied", resp.SpecSatisfied, false)
	b = appendFloatField(b, "latency_ms", resp.LatencyMS, false)
	b = append(b, `,"rows_scanned":`...)
	b = strconv.AppendInt(b, resp.RowsScanned, 10)
	b = appendFloatField(b, "sample_fraction", resp.SampleFraction, false)
	if resp.Workers != 0 {
		b = append(b, `,"workers":`...)
		b = strconv.AppendInt(b, int64(resp.Workers), 10)
	}
	if resp.Fingerprint != "" {
		b = appendStringField(b, "fingerprint", resp.Fingerprint)
	}
	if len(resp.Messages) > 0 {
		b = append(b, `,"messages":`...)
		b = appendStrings(b, resp.Messages)
	}
	if resp.TraceID != "" {
		b = appendStringField(b, "trace_id", resp.TraceID)
	}
	var err error
	if resp.Trace != nil {
		b = append(b, `,"trace":`...)
		if b, err = appendMarshal(b, resp.Trace); err != nil {
			return b, err
		}
	}
	if sh := resp.Shards; sh != nil {
		b = append(b, `,"shards":{"table":`...)
		b = appendString(b, sh.Table)
		b = append(b, `,"count":`...)
		b = strconv.AppendInt(b, int64(sh.Count), 10)
		b = appendStringField(b, "key", sh.Key)
		b = appendIntsField(b, "rows_per_shard", sh.RowsPerShard)
		b = appendIntsField(b, "degraded", sh.Degraded)
		b = appendIntsField(b, "pruned", sh.Pruned)
		b = appendBoolField(b, "extrapolated", sh.Extrapolated, true)
		b = appendFloatField(b, "coverage", sh.Coverage, false)
		b = append(b, '}')
	}
	if resp.Contract != nil {
		b = append(b, `,"contract":`...)
		if b, err = appendMarshal(b, resp.Contract); err != nil {
			return b, err
		}
	}
	return append(b, '}', '\n'), nil
}

// appendValue appends one result cell: null for NULL, else its scalar.
func appendValue(b []byte, v storage.Value) []byte {
	if v.IsNull() {
		return append(b, "null"...)
	}
	switch v.Typ {
	case storage.TypeInt64:
		return strconv.AppendInt(b, v.I, 10)
	case storage.TypeFloat64:
		return appendFloat(b, v.F)
	case storage.TypeBool:
		return strconv.AppendBool(b, v.B)
	default:
		return appendString(b, v.S)
	}
}

// cellSpan is a float cell's bytes in the reply, b[lo:hi], and bits; hi is 0 for another cell.
type cellSpan struct {
	lo, hi int
	bits   uint64
}

// appendItem appends one cell's annotation in ItemJSON's form: the CI
// fields only when the cell has a CI, and then only where they are not 0.
func appendItem(b []byte, it *core.ItemResult, cell cellSpan) []byte {
	b = append(b, `{"name":`...)
	b = appendString(b, it.Name)
	b = appendBoolField(b, "is_aggregate", it.IsAggregate, false)
	b = appendBoolField(b, "has_ci", it.HasCI, false)
	if it.HasCI {
		b = appendBoundField(b, "ci_lo", it.CI.Lo, cell)
		b = appendBoundField(b, "ci_hi", it.CI.Hi, cell)
		b = appendFloatField(b, "confidence", it.CI.Confidence, true)
		b = appendFloatField(b, "rel_half_width", it.RelHalfWidth, true)
	}
	return append(b, '}')
}

// appendMarshal appends v as json.Marshal encodes it.
func appendMarshal(b []byte, v any) ([]byte, error) {
	enc, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(b, enc...), nil
}

func appendStringField(b []byte, name, s string) []byte {
	b = append(append(append(b, ',', '"'), name...), '"', ':')
	return appendString(b, s)
}

// appendFloatField appends the field unless omitEmpty and f is 0.
func appendFloatField(b []byte, name string, f float64, omitEmpty bool) []byte {
	if omitEmpty && f == 0 {
		return b
	}
	b = append(append(append(b, ',', '"'), name...), '"', ':')
	return appendFloat(b, f)
}

// appendBoundField is appendFloatField(b, name, f, true) for a CI bound,
// copying the cell's bytes when f has its bits (an exact answer's bounds).
func appendBoundField(b []byte, name string, f float64, cell cellSpan) []byte {
	if f == 0 || cell.hi == 0 || math.Float64bits(f) != cell.bits {
		return appendFloatField(b, name, f, true)
	}
	return append(append(append(append(b, ',', '"'), name...), '"', ':'), b[cell.lo:cell.hi]...)
}

// appendBoolField appends the field unless omitEmpty and v is false.
func appendBoolField(b []byte, name string, v, omitEmpty bool) []byte {
	if omitEmpty && !v {
		return b
	}
	b = append(append(append(b, ',', '"'), name...), '"', ':')
	return strconv.AppendBool(b, v)
}

// appendIntsField appends a non-empty []int field (omitempty).
func appendIntsField(b []byte, name string, vs []int) []byte {
	if len(vs) == 0 {
		return b
	}
	b = append(append(append(b, ',', '"'), name...), '"', ':', '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// appendStrings appends a []string; nil is null, as encoding/json has it.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// appendFloat appends f as encoding/json formats a float64 (ES6 number to
// string: 'f' between 1e-6 and 1e21, 'e' outside with a bare exponent), and
// a non-finite f as the string "NaN", "+Inf" or "-Inf".
func appendFloat(b []byte, f float64) []byte {
	switch {
	case math.IsNaN(f):
		return append(b, `"NaN"`...)
	case math.IsInf(f, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(f, -1):
		return append(b, `"-Inf"`...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 is written e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's escapes:
// the two-character forms of \ " \b \f \n \r \t, \u00XX for the other
// control bytes and for < > &, \ufffd for each invalid UTF-8 byte, and
// \u2028 and \u2029.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// replyBuffers recycles reply buffers across requests; one larger than
// maxPooledReply is left to the collector.
var replyBuffers = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxPooledReply = 1 << 20

// writeBody writes an encoded JSON body with its length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write is a client gone: no one is left to tell
}
