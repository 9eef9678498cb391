package server

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// unescapeLabelValue is a minimal Prometheus text-format label parser:
// the reverse of EscapeLabelValue, per the exposition-format spec (only
// \\, \", and \n are defined escapes).
func unescapeLabelValue(t *testing.T, v string) string {
	t.Helper()
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(v) {
			t.Fatalf("dangling backslash in %q", v)
		}
		switch v[i] {
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		case 'n':
			b.WriteByte('\n')
		default:
			t.Fatalf("undefined escape \\%c in %q — prometheus parsers read this literally", v[i], v)
		}
	}
	return b.String()
}

// parseKey splits name{label="value"} with the in-test parser, verifying
// the quoted value uses only spec-defined escapes.
func parseKey(t *testing.T, key string) (name, label, value string) {
	t.Helper()
	open := strings.IndexByte(key, '{')
	if open < 0 || !strings.HasSuffix(key, "\"}") {
		t.Fatalf("malformed key %q", key)
	}
	name = key[:open]
	body := key[open+1 : len(key)-2] // strip {  and  "}
	eq := strings.Index(body, "=\"")
	if eq < 0 {
		t.Fatalf("malformed label body in %q", key)
	}
	return name, body[:eq], unescapeLabelValue(t, body[eq+2:])
}

// Label values must survive a round trip through Key() and a
// spec-faithful parser — including backslashes, quotes, newlines, and
// non-ASCII, all of which appear in real SQL-derived labels.
func TestKeyLabelEscapingRoundTrip(t *testing.T) {
	values := []string{
		"exact",
		`path\to\sample`,
		`quoted "name"`,
		"line1\nline2",
		`mix\"of \\ everything` + "\n" + `"end"`,
		"unicode: héllo wörld — 日本語",
		"tab\tand\rcr stay raw",
		"",
	}
	for _, v := range values {
		key := Key("queries_total", "technique", v)
		name, label, got := parseKey(t, key)
		if name != "queries_total" || label != "technique" {
			t.Fatalf("key structure: %q", key)
		}
		if got != v {
			t.Fatalf("round trip: %q -> %q -> %q", v, key, got)
		}
	}
}

// The old %q-based escaping hex-escaped non-ASCII; the spec-compliant
// form must keep raw UTF-8 and raw tabs.
func TestKeyKeepsRawUTF8(t *testing.T) {
	key := Key("m", "l", "héllo\tworld")
	if strings.Contains(key, `\x`) || strings.Contains(key, `\u`) || strings.Contains(key, `\t`) {
		t.Fatalf("over-escaped key: %q", key)
	}
	if !strings.Contains(key, "héllo\tworld") {
		t.Fatalf("utf-8/tab not raw in key: %q", key)
	}
}

// TestKeyLabelPairs: several label pairs render in the order given, each
// value escaped.
func TestKeyLabelPairs(t *testing.T) {
	got := Key("shard_exec_total", "outcome", "ok", "shard", "2", "table", `a"b`)
	if want := `shard_exec_total{outcome="ok",shard="2",table="a\"b"}`; got != want {
		t.Fatalf("Key = %s, want %s", got, want)
	}
}

// Labeled gauges must share one # TYPE line per family in the exposition
// output, like counters and histograms always did.
func TestPrometheusGaugeFamilyGrouping(t *testing.T) {
	var sb strings.Builder
	writePrometheus(&sb, telemetry.Sample{Gauges: map[string]float64{
		Key("sample_stale", "table", "events"): 1,
		Key("sample_stale", "table", "stars"):  0,
		"audit_backlog":                        3,
	}}, nil, nil)
	out := sb.String()
	if n := strings.Count(out, "# TYPE sample_stale gauge"); n != 1 {
		t.Fatalf("sample_stale family declared %d times:\n%s", n, out)
	}
	for _, want := range []string{
		`sample_stale{table="events"} 1`,
		`sample_stale{table="stars"} 0`,
		"# TYPE audit_backlog gauge",
		"audit_backlog 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// TYPE must precede its series.
	if strings.Index(out, "# TYPE sample_stale gauge") > strings.Index(out, `sample_stale{table="events"}`) {
		t.Fatalf("TYPE line after series:\n%s", out)
	}
}
