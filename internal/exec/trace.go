package exec

// Operator-level tracing. Each plan node gets a span named by its
// Explain() string; the operator is wrapped in traceOp, which accumulates
// busy time across Open/Next/Close and counts rows out. When tracing is
// disabled (no tracer on the context) the builder returns the bare
// operator unchanged, so the untraced hot path is untouched.

import (
	"time"

	"repro/internal/storage"
	"repro/internal/trace"
)

// traceOp decorates an operator with span accounting. Reported time is
// inclusive: a parent's span includes time spent pulling from children,
// exactly like EXPLAIN ANALYZE in row-store databases.
type traceOp struct {
	inner Operator
	sp    *trace.Span
}

// wrapOp attaches op to sp, or returns op unchanged when tracing is off.
func wrapOp(op Operator, sp *trace.Span) Operator {
	if sp == nil {
		return op
	}
	return &traceOp{inner: op, sp: sp}
}

// Schema implements Operator.
func (op *traceOp) Schema() storage.Schema { return op.inner.Schema() }

// Open implements Operator.
func (op *traceOp) Open() error {
	t0 := time.Now()
	err := op.inner.Open()
	op.sp.AddTime(time.Since(t0))
	return err
}

// Next implements Operator.
func (op *traceOp) Next() (*Batch, error) {
	t0 := time.Now()
	b, err := op.inner.Next()
	op.sp.AddTime(time.Since(t0))
	if b != nil {
		op.sp.AddRows(int64(b.Len()))
	}
	return b, err
}

// Close implements Operator.
func (op *traceOp) Close() error {
	t0 := time.Now()
	err := op.inner.Close()
	op.sp.AddTime(time.Since(t0))
	return err
}
