// Package trace is an allocation-light span recorder for per-query
// execution profiles. A Tracer owns a tree of Spans (name, accumulated
// duration, rows in/out, string attrs); the current span travels through
// the stack via context.Context.
//
// The package is built around one invariant: when no Tracer is installed
// on the context, every entry point is a no-op that allocates nothing.
// StartSpan returns a nil *Span on a tracer-less context, and every Span
// method is nil-safe, so call sites never need their own "is tracing on"
// branch on the hot path — though loops that would call time.Now per row
// should still guard on `sp != nil`.
//
// Spans record observations only; they must never influence execution
// (morsel sizing, claim order, merge order), so that a traced run is
// bit-identical to an untraced one.
package trace

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Tracer is the root of one query's span tree. Every tracer owns a
// 128-bit trace ID, hex-encoded once at construction; every span it
// creates gets a 64-bit span ID derived from the trace ID and a counter
// (splitmix64), so span-ID assignment costs no syscalls and no locks
// beyond the counter.
type Tracer struct {
	root    *Span
	traceID string // the trace ID's 32-char lowercase hex form
	idSeed  uint64
	idCtr   atomic.Uint64
}

// New creates a Tracer with a fresh random trace ID whose root span has
// the given name. The root span starts immediately; call Finish (or
// root.End) before rendering.
func New(name string) *Tracer {
	return NewWithParent(name, NewTraceID(), SpanID{})
}

// NewWithParent creates a Tracer that continues an existing trace: the
// root span joins trace tid as a child of remote span parent (zero
// parent = this tracer starts the trace). Used when a query arrives with
// a W3C traceparent header.
func NewWithParent(name string, tid TraceID, parent SpanID) *Tracer {
	if tid.IsZero() {
		tid = NewTraceID()
	}
	t := &Tracer{
		traceID: tid.String(),
		idSeed:  binary.BigEndian.Uint64(tid[8:]),
	}
	t.root = &Span{name: name, start: time.Now(), timed: true, tr: t, parentID: parent}
	t.root.spanID = t.nextSpanID()
	return t
}

// TraceID returns the tracer's trace identifier in hex ("" for a nil
// tracer): the one string a reply, a traceparent header and a flight
// record carry.
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

func (t *Tracer) nextSpanID() SpanID {
	x := stats.SplitMix64(t.idSeed + t.idCtr.Add(1))
	if x == 0 {
		x = 1
	}
	var id SpanID
	binary.BigEndian.PutUint64(id[:], x)
	return id
}

// Root returns the root span.
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span. Idempotent.
func (t *Tracer) Finish() {
	if t != nil {
		t.root.End()
	}
}

// Profile snapshots the span tree into an exportable form. The root is
// ended first if still running.
func (t *Tracer) Profile() *Profile {
	if t == nil {
		return nil
	}
	t.root.End()
	return t.root.profile()
}

// ctxKey carries the *current* span (not the tracer): children attach to
// whatever span is on the context.
type ctxKey struct{}

func withSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// WithTracer installs t's root span as the current span on ctx.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return withSpan(ctx, t.root)
}

// ContextWithSpan installs sp as the current span on ctx (no-op for a
// nil span). Fan-out paths that pre-create per-leg spans — the scatter
// executor — use this so each leg's context carries its own span, and a
// remote call made under it propagates the leg's traceparent, not the
// parent's.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return withSpan(ctx, sp)
}

// Detach returns ctx with no current span: work under it records nothing.
// A loop that accounts for its iterations on its own accumulating spans —
// online aggregation's chunks — runs them detached, so their operators do
// not each add a subtree.
func Detach(ctx context.Context) context.Context {
	if SpanFromContext(ctx) == nil {
		return ctx
	}
	return withSpan(ctx, nil)
}

// SpanFromContext returns the current span, or nil when tracing is off.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Enabled reports whether a span is installed on ctx.
func Enabled(ctx context.Context) bool { return SpanFromContext(ctx) != nil }

// StartSpan opens a timed child of the current span and returns it along
// with a context carrying it. When tracing is disabled it returns
// (nil, ctx) without allocating.
func StartSpan(ctx context.Context, name string) (*Span, context.Context) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return nil, ctx
	}
	sp := parent.newChild(name)
	sp.start = time.Now()
	sp.timed = true
	return sp, withSpan(ctx, sp)
}

// StartOp opens an *accumulating* child of the current span: it has no
// start time, and its duration is whatever the caller adds via AddTime.
// Operators use this so their reported time is busy time inside
// Open/Next/Close, not wall time from build to close.
func StartOp(ctx context.Context, name string) (*Span, context.Context) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return nil, ctx
	}
	sp := parent.newChild(name)
	return sp, withSpan(ctx, sp)
}

// Span is one node in the profile tree. All methods are safe on a nil
// receiver (no-ops), and safe for concurrent use: morsel workers append
// to their own pre-created spans while the parent holds others.
type Span struct {
	name  string
	start time.Time
	timed bool // duration = end-start; otherwise accumulated via AddTime

	tr       *Tracer // owning tracer (trace ID, span-ID allocator)
	spanID   SpanID
	parentID SpanID

	mu       sync.Mutex
	done     bool
	dur      time.Duration
	rowsIn   int64
	rowsInOK bool
	rowsOut  int64
	attrs    []Attr
	children []*Span
}

// Attr is one key/value annotation on a span. A slice (not a map) keeps
// rendering order deterministic: insertion order.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// End stops a timed span's clock. Idempotent; no-op for accumulating
// spans and nil spans.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done && s.timed {
		s.dur = time.Since(s.start)
	}
	s.done = true
	s.mu.Unlock()
}

// AddTime adds d to the span's accumulated duration.
func (s *Span) AddTime(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.dur += d
	s.mu.Unlock()
}

// AddRows adds n to the span's rows-out counter.
func (s *Span) AddRows(n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rowsOut += n
	s.mu.Unlock()
}

// SetRowsIn records the span's input cardinality explicitly. Without it,
// rows-in is inferred at snapshot time as the sum of child rows-out.
func (s *Span) SetRowsIn(n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rowsIn = n
	s.rowsInOK = true
	s.mu.Unlock()
}

// SetAttr records (or overwrites) a string attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetAttrInt records an integer attribute.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// SetAttrFloat records a float attribute with compact formatting.
func (s *Span) SetAttrFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatFloat(v, 'g', -1, 64))
}

// NewChild attaches an accumulating child span and returns it. Use for
// spans whose time is added explicitly (workers, merge phases).
func (s *Span) NewChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.newChild(name)
}

// StartChild attaches a timed child span (clock running) and returns it.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	sp := s.newChild(name)
	sp.start = time.Now()
	sp.timed = true
	return sp
}

func (s *Span) newChild(name string) *Span {
	// start is recorded on every child for span export; only timed
	// spans use it for duration.
	sp := &Span{name: name, start: time.Now(), tr: s.tr, parentID: s.spanID}
	if s.tr != nil {
		sp.spanID = s.tr.nextSpanID()
	}
	s.mu.Lock()
	s.children = append(s.children, sp)
	s.mu.Unlock()
	return sp
}

// TraceID returns the owning tracer's trace ID in hex ("" for nil spans
// or spans created outside a tracer).
func (s *Span) TraceID() string {
	if s == nil || s.tr == nil {
		return ""
	}
	return s.tr.traceID
}

// SpanID returns the span's identifier (zero for nil spans).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.spanID
}

// Traceparent renders the W3C traceparent header (version 00, sampled
// flag set) that would propagate this span's context to a downstream
// service: 00-<32 hex trace id>-<16 hex span id>-01, or "" when
// untraced. This is the exact string a remote-shard RPC will carry.
func (s *Span) Traceparent() string {
	if s == nil || s.tr == nil {
		return ""
	}
	return "00-" + s.tr.traceID + "-" + s.spanID.String() + "-01"
}

// Snapshot exports the subtree rooted at s without ending it (nil-safe).
// Timed spans that are still running report zero duration.
func (s *Span) Snapshot() *Profile {
	if s == nil {
		return nil
	}
	return s.profile()
}

// Profile is the exportable snapshot of a span tree, JSON-encodable and
// pretty-printable.
type Profile struct {
	Name       string  `json:"name"`
	DurationMS float64 `json:"duration_ms"`
	// TraceID/SpanID/ParentSpanID are lowercase hex (W3C widths: 32, 16,
	// 16 chars); empty when the span tree was built without a tracer.
	TraceID      string `json:"trace_id,omitempty"`
	SpanID       string `json:"span_id,omitempty"`
	ParentSpanID string `json:"parent_span_id,omitempty"`
	// StartUnixNano anchors the span on the wall clock for export;
	// 0 for pre-identity snapshots.
	StartUnixNano int64      `json:"start_unix_nano,omitempty"`
	RowsIn        int64      `json:"rows_in,omitempty"`
	RowsOut       int64      `json:"rows_out,omitempty"`
	Attrs         []Attr     `json:"attrs,omitempty"`
	Children      []*Profile `json:"children,omitempty"`
}

func (s *Span) profile() *Profile {
	s.mu.Lock()
	p := &Profile{
		Name:       s.name,
		DurationMS: float64(s.dur) / float64(time.Millisecond),
		RowsOut:    s.rowsOut,
	}
	if s.tr != nil {
		p.TraceID = s.tr.traceID
		p.SpanID = s.spanID.String()
		if !s.parentID.IsZero() {
			p.ParentSpanID = s.parentID.String()
		}
	}
	if !s.start.IsZero() {
		p.StartUnixNano = s.start.UnixNano()
	}
	p.Attrs = append(p.Attrs, s.attrs...)
	children := append([]*Span(nil), s.children...)
	rowsIn, rowsInOK := s.rowsIn, s.rowsInOK
	s.mu.Unlock()

	var childOut int64
	for _, c := range children {
		cp := c.profile()
		p.Children = append(p.Children, cp)
		childOut += cp.RowsOut
	}
	if rowsInOK {
		p.RowsIn = rowsIn
	} else if len(children) > 0 {
		p.RowsIn = childOut
	}
	return p
}

// Attr returns the value of the named attribute ("" if absent).
func (p *Profile) Attr(key string) string {
	for _, a := range p.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Find returns the first profile node (depth-first, p included) whose
// name contains substr, or nil.
func (p *Profile) Find(substr string) *Profile {
	if p == nil {
		return nil
	}
	if strings.Contains(p.Name, substr) {
		return p
	}
	for _, c := range p.Children {
		if hit := c.Find(substr); hit != nil {
			return hit
		}
	}
	return nil
}

// FindAll returns every node (depth-first) whose name contains substr.
func (p *Profile) FindAll(substr string) []*Profile {
	if p == nil {
		return nil
	}
	var out []*Profile
	if strings.Contains(p.Name, substr) {
		out = append(out, p)
	}
	for _, c := range p.Children {
		out = append(out, c.FindAll(substr)...)
	}
	return out
}

// String renders the profile as an indented tree, one node per line,
// with durations right-aligned to the widest label and per-span
// throughput (rows-out per second of span time):
//
//	query                                12.40ms
//	├─ engine exact                      12.30ms
//	│  └─ HashAggregate(...)             11.90ms  in=500000 out=1  84 rows/s  workers=4
func (p *Profile) String() string {
	width := p.labelWidth("")
	if width < 24 {
		width = 24
	}
	var sb strings.Builder
	p.render(&sb, "", "", width)
	return sb.String()
}

// Lines returns the rendered tree split into lines (no trailing blank).
func (p *Profile) Lines() []string {
	return strings.Split(strings.TrimRight(p.String(), "\n"), "\n")
}

// labelWidth returns the widest rendered label (branch glyphs + name, in
// runes) in the subtree, so durations can right-align as a column.
func (p *Profile) labelWidth(indent string) int {
	w := len([]rune(indent)) + len([]rune(p.Name))
	for _, c := range p.Children {
		// Children render under indent plus a 3-rune branch glyph.
		if cw := c.labelWidth(indent + "   "); cw > w {
			w = cw
		}
	}
	return w
}

// formatRate renders a rows/s throughput compactly: 850/s, 12.4k/s,
// 3.1M/s.
func formatRate(rowsPerSec float64) string {
	switch {
	case rowsPerSec >= 1e6:
		return fmt.Sprintf("%.1fM rows/s", rowsPerSec/1e6)
	case rowsPerSec >= 1e3:
		return fmt.Sprintf("%.1fk rows/s", rowsPerSec/1e3)
	default:
		return fmt.Sprintf("%.0f rows/s", rowsPerSec)
	}
}

func (p *Profile) render(sb *strings.Builder, branch, indent string, width int) {
	label := branch + p.Name
	pad := width - len([]rune(label))
	if pad < 0 {
		pad = 0
	}
	fmt.Fprintf(sb, "%s%s %9.2fms", label, strings.Repeat(" ", pad), p.DurationMS)
	if p.RowsIn > 0 || p.RowsOut > 0 {
		fmt.Fprintf(sb, "  in=%d out=%d", p.RowsIn, p.RowsOut)
	}
	if p.RowsOut > 0 && p.DurationMS > 0 {
		fmt.Fprintf(sb, "  %s", formatRate(float64(p.RowsOut)/(p.DurationMS/1e3)))
	}
	for _, a := range p.Attrs {
		fmt.Fprintf(sb, "  %s=%s", a.Key, a.Value)
	}
	sb.WriteByte('\n')
	for i, c := range p.Children {
		last := i == len(p.Children)-1
		cb, ci := "├─ ", "│  "
		if last {
			cb, ci = "└─ ", "   "
		}
		c.render(sb, indent+cb, indent+ci, width)
	}
}

// SortChildrenByName orders each node's children lexically. Useful for
// stable assertions in tests where concurrent attachment order varies.
// (Worker spans are pre-created in index order, so normal profiles are
// already deterministic; this exists for defensive test hygiene.)
func (p *Profile) SortChildrenByName() {
	sort.SliceStable(p.Children, func(i, j int) bool { return p.Children[i].Name < p.Children[j].Name })
	for _, c := range p.Children {
		c.SortChildrenByName()
	}
}
