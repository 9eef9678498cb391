package core

import (
	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/storage"
)

// Grading is one answer checked against its exact truth: every aggregate
// cell of the answer's rows that found a truth row, and how many rows
// found none.
type Grading struct {
	Cells []GradedCell
	// Unmatched counts rows present on one side only: a group the answer
	// missed, or one it reported that the truth does not hold.
	Unmatched int
}

// GradedCell is one claimed aggregate cell against its truth.
type GradedCell struct {
	// Col is the cell's column in the claimed result.
	Col int
	// RelError is stats.RelError of the claimed value against the truth.
	RelError float64
	// HasCI reports that the cell claimed an interval; Covered that the
	// interval holds the truth.
	HasCI, Covered bool
}

// MaxRelError is the largest relative error of any graded cell, and 1 when
// any row is unmatched: a missing or invented group is an error of its own
// that no cell shows.
func (g Grading) MaxRelError() float64 {
	if g.Unmatched > 0 {
		return 1
	}
	var m float64
	for _, c := range g.Cells {
		m = max(m, c.RelError)
	}
	return m
}

// Grade checks a claimed answer against the exact answer to the same
// statement. Rows pair by the canonical key (sample.KeyOf) of their
// non-aggregate items, the columns the claimed rows mark as not
// aggregate, so neither row order nor a group the other side lacks can
// pair two different groups; rows with one key pair as a multiset, in
// order. Claimed rows need their Items; the truth's are not read.
func Grade(claimed, truth *Result) Grading {
	var g Grading
	if len(claimed.Rows) == 0 {
		g.Unmatched = len(truth.Rows)
		return g
	}
	var keyCols []int
	for col, it := range claimed.Items[0] {
		if !it.IsAggregate {
			keyCols = append(keyCols, col)
		}
	}
	vals := make([]storage.Value, len(keyCols))
	key := func(row []storage.Value) string {
		for i, c := range keyCols {
			vals[i] = row[c]
		}
		return sample.KeyOf(vals)
	}
	truthByKey := make(map[string][]int, len(truth.Rows))
	for i, row := range truth.Rows {
		k := key(row)
		truthByKey[k] = append(truthByKey[k], i)
	}
	for i, row := range claimed.Rows {
		k := key(row)
		idxs := truthByKey[k]
		if len(idxs) == 0 {
			g.Unmatched++
			continue
		}
		ti := idxs[0]
		truthByKey[k] = idxs[1:]
		for col, it := range claimed.Items[i] {
			if !it.IsAggregate {
				continue
			}
			tv := truth.Float(ti, col)
			c := GradedCell{Col: col, RelError: stats.RelError(claimed.Float(i, col), tv), HasCI: it.HasCI}
			c.Covered = it.HasCI && it.CI.Contains(tv)
			g.Cells = append(g.Cells, c)
		}
	}
	for _, rest := range truthByKey {
		g.Unmatched += len(rest)
	}
	return g
}
