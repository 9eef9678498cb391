// Package sketch implements precomputed synopses — the non-sampling branch
// of the AQP design space the paper surveys: equi-depth histograms for
// range aggregates and selectivity estimation, a Count-Min sketch for
// point frequencies and HyperLogLog for distinct counts. Synopses answer their narrow
// query class in O(synopsis) time but cannot serve arbitrary queries —
// the generality limit that motivates sampling-based AQP.
package sketch

import (
	"fmt"
	"math"
	"sort"
)

// EquiDepthHistogram summarizes a numeric column with buckets of (roughly)
// equal row counts, the standard selectivity-estimation structure.
type EquiDepthHistogram struct {
	bounds []float64 // len = buckets+1; bounds[0]=min, bounds[len-1]=max
	counts []float64 // rows per bucket
	total  float64
}

// BuildEquiDepth builds a histogram with at most buckets buckets over the
// values (which it sorts in place).
func BuildEquiDepth(values []float64, buckets int) (*EquiDepthHistogram, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("sketch: empty input")
	}
	if buckets <= 0 {
		return nil, fmt.Errorf("sketch: buckets must be positive")
	}
	sort.Float64s(values)
	n := len(values)
	if buckets > n {
		buckets = n
	}
	h := &EquiDepthHistogram{total: float64(n)}
	h.bounds = append(h.bounds, values[0])
	per := float64(n) / float64(buckets)
	for b := 1; b <= buckets; b++ {
		idx := int(math.Round(per*float64(b))) - 1
		if idx >= n {
			idx = n - 1
		}
		lo := int(math.Round(per * float64(b-1)))
		h.counts = append(h.counts, float64(idx-lo+1))
		h.bounds = append(h.bounds, values[idx])
	}
	return h, nil
}

// Buckets returns the number of buckets.
func (h *EquiDepthHistogram) Buckets() int { return len(h.counts) }

// Total returns the summarized row count.
func (h *EquiDepthHistogram) Total() float64 { return h.total }

// EstimateRangeCount estimates |{x : lo <= x <= hi}| assuming uniform
// spread within buckets.
func (h *EquiDepthHistogram) EstimateRangeCount(lo, hi float64) float64 {
	if hi < lo {
		return 0
	}
	var est float64
	for b := 0; b < len(h.counts); b++ {
		blo, bhi := h.bounds[b], h.bounds[b+1]
		if bhi < lo || blo > hi {
			continue
		}
		width := bhi - blo
		if width <= 0 {
			// Degenerate bucket (single value).
			if blo >= lo && blo <= hi {
				est += h.counts[b]
			}
			continue
		}
		l := math.Max(lo, blo)
		r := math.Min(hi, bhi)
		est += h.counts[b] * (r - l) / width
	}
	return est
}
