// Package exec executes logical plans on one morsel-driven scan loop: the
// table at the bottom of a plan's left-deep chain is read a run of rows at
// a time through vector kernels — filter, inline sampler, the probes of the
// joins' build sides (each scanned once, on the same loop), residual
// predicates — into a terminal that folds the rows into weighted hash
// aggregation with Horvitz–Thompson variance tracking, or emits them; the
// chain above (HAVING, projection, sort, limit) runs over the materialized
// result. Any worker count gives the same answer, bit for bit.
package exec

import (
	"repro/internal/storage"
)

// AggDetail carries the statistical state of one aggregate in one group,
// used by AQP engines to build confidence intervals.
type AggDetail struct {
	// Estimate is the (Horvitz–Thompson) point estimate.
	Estimate float64
	// Variance is the estimated variance of the estimator.
	Variance float64
	// N is the number of input rows that contributed.
	N float64
	// Weighted reports whether any contributing row had weight != 1
	// (i.e. the value is an estimate rather than an exact answer).
	Weighted bool
	// Supported is false for aggregates whose error cannot be analyzed
	// under sampling (MIN, MAX, COUNT DISTINCT).
	Supported bool
	// HasInterval marks aggregates whose uncertainty is an explicit
	// interval rather than a variance (PERCENTILE, via the DKW bound).
	// Lo/Hi then bracket the estimate at ~95% confidence.
	HasInterval bool
	Lo, Hi      float64
}

// GroupDetail aggregates the per-aggregate details of one output group.
type GroupDetail struct {
	// Key is the canonical group key ("" for global aggregates).
	Key string
	// GroupN is the number of input rows in the group.
	GroupN float64
	// Aggs has one entry per aggregate slot.
	Aggs []AggDetail
}

// Counters tallies the physical work of a plan execution; the experiment
// harness uses them as scale-free cost measures.
type Counters struct {
	// RowsScanned counts base-table rows the scan had to read (rows in
	// visited blocks). Row-level samplers still read every row; the block
	// sampler skips whole blocks.
	RowsScanned int64
	// RowsEmitted counts rows surviving scan filters and samplers.
	RowsEmitted int64
	// BlocksScanned / BlocksSkipped count block-sampler decisions.
	BlocksScanned int64
	BlocksSkipped int64
	// Passes counts table scans opened (passes over base data).
	Passes int64
}

// Add accumulates other into c.
func (c *Counters) Add(o Counters) {
	c.RowsScanned += o.RowsScanned
	c.RowsEmitted += o.RowsEmitted
	c.BlocksScanned += o.BlocksScanned
	c.BlocksSkipped += o.BlocksSkipped
	c.Passes += o.Passes
}

// Result is a plan execution, materialized.
type Result struct {
	Schema storage.Schema
	Rows   [][]storage.Value
	// Weights parallels Rows (nil = all 1).
	Weights []float64
	// Details parallels Rows when the plan aggregates.
	Details  []*GroupDetail
	Counters Counters
}

// NumRows returns the number of result rows.
func (r *Result) NumRows() int { return len(r.Rows) }

// Value returns the value at row i, column j.
func (r *Result) Value(i, j int) storage.Value { return r.Rows[i][j] }

// ColumnIndex returns the index of the named output column, or -1.
func (r *Result) ColumnIndex(name string) int { return r.Schema.ColumnIndex(name) }
