package exec

// Partial aggregation states as first-class values.
//
// Sharded scatter-gather execution fans a query's aggregate subtree out to
// independent shards, each of which returns an AggPartial — the same
// mergeable group states the morsel-parallel operator folds internally —
// and the gather step merges them in shard order, finalizes once, and
// re-applies the plan nodes sitting above the aggregate (HAVING filter,
// projection, sort, limit). Merging HT partials across shards is exactly
// stratified composition of per-shard estimators (every component is a
// plain sum over sampled rows), so the composed confidence intervals are
// the ones internal/stats.CombineTotals/CombineMeans would produce — see
// the equivalence test in stats — and folding in fixed shard order keeps
// the float operation sequence deterministic, preserving the repository's
// bit-reproducibility guarantee.

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/plan"
)

// AggPartial is the portable partial-aggregation state of one execution
// unit (one shard, or one unsharded run): the per-group accumulator map of
// a single Aggregate node plus the physical work counters of producing it.
type AggPartial struct {
	groups map[string]*groupState
	// Counters is the physical work performed to produce this partial.
	Counters Counters
}

// NumGroups returns the number of groups accumulated so far.
func (p *AggPartial) NumGroups() int { return len(p.groups) }

// EmptyAggPartial returns a partial with no accumulated groups — the
// correct state when every execution unit was provably empty of matches
// (e.g. all shards pruned). Finalizing it applies the usual SQL
// semantics: a global aggregate still emits its one row.
func EmptyAggPartial() *AggPartial {
	return &AggPartial{groups: map[string]*groupState{}}
}

// RunAggPartialContext executes root's aggregate subtree — the (single)
// Aggregate node and everything below it — and returns the mergeable
// partial state without finalizing it: the local-partial step of
// RunParallelContext alone. Eligible aggregate-over-scan shapes run on the
// morsel-parallel path with the given worker count; other shapes (e.g. the
// stateful distinct sampler) accumulate serially. Plan nodes above the
// aggregate are not executed here; FinalizeAggPartial re-applies them after
// partials are merged.
func RunAggPartialContext(ctx context.Context, root plan.Node, workers int) (*AggPartial, error) {
	a := plan.FindAggregate(root)
	if a == nil {
		return nil, fmt.Errorf("exec: plan has no aggregate to compute a partial for")
	}
	if workers <= 0 {
		workers = ResolveWorkers(ctx, 0)
	}
	part := &AggPartial{}
	op, err := newAggOp(ctx, a, &part.Counters, aggSource{workers: workers}, "partial")
	if err != nil {
		return nil, err
	}
	if part.groups, err = op.partial(); err != nil {
		return nil, err
	}
	op.sp.AddRows(int64(len(part.groups)))
	return part, nil
}

// MergeAggPartials folds the partials together in slice order and returns
// the combined state. Nil entries (failed or skipped units) are ignored.
// The first non-nil partial is reused as the merge base, so merging a
// single partial is a move, not a recomputation — the shard-count-1 path
// performs exactly the float operations of the unsharded path. Per group
// the fold order is fixed by slice position alone; map iteration within a
// partial only interleaves independent groups.
func MergeAggPartials(parts []*AggPartial) *AggPartial {
	var dst *AggPartial
	for _, p := range parts {
		if p == nil {
			continue
		}
		if dst == nil {
			dst = p
			continue
		}
		dst.Counters.Add(p.Counters)
		for key, gs := range p.groups {
			if g, ok := dst.groups[key]; ok {
				mergeGroupState(g, gs)
			} else {
				dst.groups[key] = gs
			}
		}
	}
	return dst
}

// SlotMoment summarizes one aggregate slot across all of a partial's
// groups: the summed Horvitz–Thompson estimate, its summed variance, and
// the sampled rows contributing. Summing over groups is valid because
// per-group HT components are sums over disjoint row sets; a contract
// pilot uses these totals to measure per-shard spread without finalizing.
type SlotMoment struct {
	Estimate float64
	Variance float64
	N        float64
}

// SlotMoments extracts per-slot pilot moments from the partial. The
// result is deterministic (each entry is a sum over groups of values
// that are themselves order-independent per group, and float addition
// over the map is confined to per-slot totals folded in group-key
// order). Returns nil when the partial has no groups.
func (p *AggPartial) SlotMoments() []SlotMoment {
	if p == nil || len(p.groups) == 0 {
		return nil
	}
	var slots int
	keys := make([]string, 0, len(p.groups))
	for key, gs := range p.groups {
		keys = append(keys, key)
		if len(gs.aggs) > slots {
			slots = len(gs.aggs)
		}
	}
	sort.Strings(keys)
	out := make([]SlotMoment, slots)
	for _, key := range keys {
		for i, st := range p.groups[key].aggs {
			out[i].Estimate += st.ht.Sum()
			out[i].Variance += st.ht.SumVariance()
			out[i].N += st.ht.N()
		}
	}
	return out
}

// ScaleForCoverage rescales every group's estimators as if the covered
// population were 1/r of the full one: SUM and COUNT estimates scale by r
// with variances ×r², while AVG (a ratio of two scaled totals) and its
// delta-method variance are invariant, and MIN/MAX/PERCENTILE states are
// untouched. Used when hash-distributed shards are lost mid-query: the
// surviving shards are an unbiased window on the table, so scaling by
// total/covered rows extrapolates honestly (see stats.ExtrapolateTotal
// for why this is wrong for range shards).
func (p *AggPartial) ScaleForCoverage(r float64) {
	if r <= 0 || r == 1 {
		return
	}
	for _, gs := range p.groups {
		for _, st := range gs.aggs {
			st.ht.ScalePopulation(r)
		}
	}
}

// FinalizeAggPartial finalizes a merged partial under root's plan shape:
// the Aggregate node takes the precomputed partial instead of running the
// rows below it, and the chain above it (HAVING filter, projection, sort,
// limit) executes normally, so gather-side results are shaped and detailed
// exactly like an unsharded run. The partial's counters are carried into
// the result. A plan with no aggregate to take the partial is an error.
func FinalizeAggPartial(ctx context.Context, root plan.Node, part *AggPartial) (*Result, error) {
	return run(ctx, root, aggSource{part: part})
}
