package sample

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/storage"
)

// OutlierIndex implements the outlier-indexing idea from the AQP
// literature the paper builds on (Chaudhuri, Das, Datar, Motwani,
// Narasayya, ICDE 2001): heavy-tailed aggregation columns make uniform
// samples high-variance because a few extreme rows carry much of the sum.
// The fix is to split the table into
//
//   - an exact outlier set: the k rows with the largest |value - median|
//     contribution, always read in full, and
//   - the remainder, answered from an ordinary uniform sample.
//
// SUM(value) = exactSum(outliers) + HT(sample of remainder), whose
// variance only sees the (bounded) remainder.
type OutlierIndex struct {
	// Column is the aggregation column the index protects.
	Column string
	// OutlierRows are the row indexes of src stored exactly.
	OutlierRows []int
	// OutlierSum is the exact sum of Column over the outlier rows.
	OutlierSum float64
	// Sample is the uniform Bernoulli sample of the remainder,
	// materialized with a weight column.
	Sample *storage.Table
	// SampleRows / SourceRows record sizes.
	SampleRows, SourceRows int
	// Rate is the remainder sampling rate.
	Rate float64
	// BuildVersion is the source version at build time.
	BuildVersion uint64
}

// outlierHeap is a min-heap over (deviation, row) keeping the k largest.
type outlierHeap struct {
	dev  []float64
	rows []int
}

func (h *outlierHeap) Len() int           { return len(h.rows) }
func (h *outlierHeap) Less(i, j int) bool { return h.dev[i] < h.dev[j] }
func (h *outlierHeap) Swap(i, j int) {
	h.dev[i], h.dev[j] = h.dev[j], h.dev[i]
	h.rows[i], h.rows[j] = h.rows[j], h.rows[i]
}
func (h *outlierHeap) Push(x any) {
	p := x.([2]float64)
	h.dev = append(h.dev, p[0])
	h.rows = append(h.rows, int(p[1]))
}
func (h *outlierHeap) Pop() any {
	n := len(h.rows) - 1
	out := [2]float64{h.dev[n], float64(h.rows[n])}
	h.dev = h.dev[:n]
	h.rows = h.rows[:n]
	return out
}

// BuildOutlierIndex builds an outlier index over src.column keeping the k
// most deviant rows exactly and sampling the rest at rate p.
func BuildOutlierIndex(src *storage.Table, column string, k int, p float64, seed int64, name string) (*OutlierIndex, error) {
	if k <= 0 {
		return nil, fmt.Errorf("sample: outlier count must be positive")
	}
	if !(p > 0 && p <= 1) {
		return nil, fmt.Errorf("sample: outlier remainder rate %v out of (0,1]", p)
	}
	// Scan a snapshot so the build is safe under concurrent appends.
	src = src.Snapshot()
	colIdx := src.Schema().ColumnIndex(column)
	if colIdx < 0 {
		return nil, fmt.Errorf("sample: outlier column %q not in table %s", column, src.Name())
	}
	col := src.Column(colIdx)
	if !col.Type().Numeric() {
		return nil, fmt.Errorf("sample: outlier column %q is not numeric", column)
	}
	n := src.NumRows()

	// First pass: mean as the deviation center (single-pass Welford).
	var mean float64
	var cnt float64
	for i := 0; i < n; i++ {
		if col.IsNull(i) {
			continue
		}
		cnt++
		mean += (col.Value(i).AsFloat() - mean) / cnt
	}

	// Second pass: top-k by |x - mean| via a size-k min-heap.
	h := &outlierHeap{}
	heap.Init(h)
	for i := 0; i < n; i++ {
		if col.IsNull(i) {
			continue
		}
		dev := math.Abs(col.Value(i).AsFloat() - mean)
		if h.Len() < k {
			heap.Push(h, [2]float64{dev, float64(i)})
		} else if dev > h.dev[0] {
			heap.Pop(h)
			heap.Push(h, [2]float64{dev, float64(i)})
		}
	}
	isOutlier := make(map[int]bool, h.Len())
	idx := &OutlierIndex{Column: column, Rate: p, SourceRows: n, BuildVersion: src.Version()}
	for _, row := range h.rows {
		isOutlier[row] = true
		idx.OutlierRows = append(idx.OutlierRows, row)
		idx.OutlierSum += col.Value(row).AsFloat()
	}

	// Third pass: uniform sample of the remainder with weights.
	out, err := writeUniform(src, p, seed, isOutlier, name)
	if err != nil {
		return nil, err
	}
	idx.Sample = out
	idx.SampleRows = out.NumRows()
	return idx, nil
}

// EstimateSum returns the outlier-index estimate of SUM(Column) over src
// and the estimated variance of that estimate: exact outlier sum plus the
// HT estimate over the sampled remainder.
func (idx *OutlierIndex) EstimateSum() (est, variance float64) {
	colIdx := idx.Sample.Schema().ColumnIndex(idx.Column)
	wIdx := idx.Sample.Schema().ColumnIndex(WeightColumn)
	est = idx.OutlierSum
	for i := 0; i < idx.Sample.NumRows(); i++ {
		c := idx.Sample.Column(colIdx)
		if c.IsNull(i) {
			continue
		}
		x := c.Value(i).AsFloat()
		w := idx.Sample.Column(wIdx).Value(i).F
		est += w * x
		variance += w * (w - 1) * x * x
	}
	return est, variance
}

// StorageRows returns the total rows materialized (outliers + sample).
func (idx *OutlierIndex) StorageRows() int { return len(idx.OutlierRows) + idx.SampleRows }
