package core

import (
	"fmt"
	"sort"

	"repro/internal/sample"
	"repro/internal/storage"
)

// Budgeted offline-sample selection — the optimization problem BlinkDB
// solves: given the query column sets (QCS) a workload is expected to use,
// with relative frequencies, and a storage budget in rows, choose which
// stratified samples to materialize so that as much of the workload as
// possible is covered. A sample stratified on set S covers every query
// whose grouping columns are a subset of S.

// QCSCandidate is one predicted query column set with its workload weight.
type QCSCandidate struct {
	QCS    []string
	Weight float64
}

// PlannedSample is one selected sample with its predicted cost.
type PlannedSample struct {
	QCS []string
	Cap int
	// Rows is the exact materialized size (Σ min(cap, |stratum|)).
	Rows int
	// Covers is the summed weight of candidates this sample serves.
	Covers float64
}

// EstimateStratifiedRows computes the exact row count a stratified sample
// on qcs with the given cap would materialize, via one scan of src.
func EstimateStratifiedRows(src *storage.Table, qcs []string, cap int) (int, error) {
	idxs := make([]int, len(qcs))
	for i, c := range qcs {
		idx := src.Schema().ColumnIndex(c)
		if idx < 0 {
			return 0, fmt.Errorf("core: QCS column %q not in table %s", c, src.Name())
		}
		idxs[i] = idx
	}
	counts := make(map[string]int)
	keyer := sample.NewKeyer(src, idxs)
	n := src.NumRows()
	for i := 0; i < n; i++ {
		counts[keyer.Key(i)]++
	}
	total := 0
	for _, c := range counts {
		if c < cap {
			total += c
		} else {
			total += cap
		}
	}
	return total, nil
}

// PlanSampleBudget greedily selects stratified samples (one cap per QCS,
// the given cap) under a row budget, maximizing covered workload weight
// per materialized row. It returns the chosen samples in selection order.
//
// Coverage rule: a sample on S covers candidate Q iff Q.QCS ⊆ S. Since
// candidate sets are also the only stratification sets considered, the
// greedy benefit of picking candidate S is the weight of all still-
// uncovered candidates that are subsets of S.
func PlanSampleBudget(src *storage.Table, cands []QCSCandidate, cap, budgetRows int) ([]PlannedSample, error) {
	if cap <= 0 {
		return nil, fmt.Errorf("core: cap must be positive")
	}
	type enriched struct {
		cand QCSCandidate
		rows int
		set  map[string]bool
	}
	items := make([]enriched, 0, len(cands))
	for _, c := range cands {
		if len(c.QCS) == 0 {
			continue
		}
		rows, err := EstimateStratifiedRows(src, c.QCS, cap)
		if err != nil {
			return nil, err
		}
		set := make(map[string]bool, len(c.QCS))
		for _, col := range c.QCS {
			set[col] = true
		}
		items = append(items, enriched{cand: c, rows: rows, set: set})
	}
	covered := make([]bool, len(items))
	var chosen []PlannedSample
	remaining := budgetRows
	for {
		bestIdx := -1
		var bestBenefit, bestRatio float64
		for i, it := range items {
			if it.rows > remaining {
				continue
			}
			// Benefit: weight of uncovered candidates whose QCS ⊆ this set.
			var benefit float64
			for j, other := range items {
				if covered[j] {
					continue
				}
				if subsetOf(other.cand.QCS, it.set) {
					benefit += other.cand.Weight
				}
			}
			if benefit <= 0 {
				continue
			}
			ratio := benefit / float64(it.rows)
			if bestIdx < 0 || ratio > bestRatio {
				bestIdx, bestBenefit, bestRatio = i, benefit, ratio
			}
		}
		if bestIdx < 0 {
			break
		}
		it := items[bestIdx]
		chosen = append(chosen, PlannedSample{
			QCS: append([]string(nil), it.cand.QCS...), Cap: cap,
			Rows: it.rows, Covers: bestBenefit,
		})
		remaining -= it.rows
		for j, other := range items {
			if !covered[j] && subsetOf(other.cand.QCS, it.set) {
				covered[j] = true
			}
		}
	}
	sort.SliceStable(chosen, func(i, j int) bool { return chosen[i].Covers > chosen[j].Covers })
	return chosen, nil
}

func subsetOf(qcs []string, set map[string]bool) bool {
	for _, c := range qcs {
		if !set[c] {
			return false
		}
	}
	return true
}
