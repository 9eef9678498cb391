package exec

// Partial aggregation states as first-class values.
//
// Sharded scatter-gather execution fans a query's aggregate subtree out to
// independent shards, each of which returns an AggPartial — the same
// mergeable group states the morsel path folds internally —
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
	"time"

	"repro/internal/plan"
	"repro/internal/storage"
)

// AggPartial is the portable partial-aggregation state of one execution
// unit (one shard, or one unsharded run) for a single Aggregate node: its
// groups in strictly increasing canonical-key order, each with its group
// values and its state in the stripes, plus the physical work counters of
// producing it. The zero AggPartial has no groups — the state when every
// unit was provably empty of matches (e.g. all shards pruned); finalizing
// it applies the usual SQL semantics: a global aggregate still emits its
// one row.
type AggPartial struct {
	keys  []string
	width int             // group values per group
	vals  []storage.Value // width per group
	groupStripes
	// Counters is the physical work performed to produce this partial.
	Counters Counters
}

// NumGroups returns the number of groups accumulated so far.
func (p *AggPartial) NumGroups() int { return len(p.keys) }

// values returns the group values of group g.
func (p *AggPartial) values(g int) []storage.Value {
	return p.vals[g*p.width : (g+1)*p.width : (g+1)*p.width]
}

// Fits reports whether p can be merged and finalized under an aggregate
// of width GROUP BY expressions and slots aggregates. A partial with no
// groups fits every aggregate.
func (p *AggPartial) Fits(width, slots int) bool {
	return len(p.keys) == 0 || p.width == width && len(p.slots) == slots
}

// RunAggPartialContext executes root's aggregate subtree — the (single)
// Aggregate node and everything below it — on the morsel path with the
// given worker count (≤ 0 resolves via ResolveWorkers) and returns the mergeable partial state without
// finalizing it: the first step of RunParallelContext alone. Plan nodes
// above the aggregate are not executed here; FinalizeAggPartial re-applies
// them after partials are merged.
func RunAggPartialContext(ctx context.Context, root plan.Node, workers int) (*AggPartial, error) {
	a := plan.FindAggregate(root)
	if a == nil {
		return nil, fmt.Errorf("exec: plan has no aggregate to compute a partial for")
	}
	t0 := time.Now()
	part, sp, err := aggGroups(ctx, a, nil, workers, " partial")
	if err != nil {
		return nil, err
	}
	sp.AddTime(time.Since(t0))
	sp.AddRows(int64(part.NumGroups()))
	return part, nil
}

// MergeAggPartials folds the partials together in slice order and returns
// the combined state. Nil entries (failed or skipped units) are ignored.
// The first non-nil partial is reused as the merge base, so merging a
// single partial is a move, not a recomputation — the shard-count-1 path
// performs exactly the float operations of the unsharded path. Each later
// partial is merge-joined in by key, so per group the fold order is fixed
// by slice position alone. The partials must share one shape (Fits).
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
		dst.mergeGroups(p)
	}
	return dst
}

// mergeGroups folds src's groups into p's, src being consumed. Groups of
// both fold in place; when src brings keys p lacks, the merged list is
// then built once, in key order. A slot held whole on one side and as HT
// sums on the other is widened to whole on the HT side first.
func (p *AggPartial) mergeGroups(src *AggPartial) {
	if len(src.keys) == 0 {
		return
	}
	if len(p.keys) == 0 {
		p.keys, p.width, p.vals, p.groupStripes = src.keys, src.width, src.vals, src.groupStripes
		return
	}
	for j := range p.slots {
		if a, b := p.slots[j].ht != nil, src.slots[j].ht != nil; a && !b {
			p.widen(j)
		} else if b && !a {
			src.widen(j)
		}
	}
	fresh := 0 // src's keys p lacks
	for i, l := 0, 0; l < len(src.keys); l++ {
		for i < len(p.keys) && p.keys[i] < src.keys[l] {
			i++
		}
		if i < len(p.keys) && p.keys[i] == src.keys[l] {
			p.merge(i, &src.groupStripes, l)
		} else {
			fresh++
		}
	}
	if fresh == 0 {
		return
	}
	out := &AggPartial{width: p.width, groupStripes: newGroupStripes(p.layout(), len(p.keys)+fresh)}
	for i, l := 0, 0; i < len(p.keys) || l < len(src.keys); {
		if l < len(src.keys) && (i == len(p.keys) || src.keys[l] < p.keys[i]) {
			out.push(src, l)
			l++
			continue
		}
		if l < len(src.keys) && src.keys[l] == p.keys[i] {
			l++ // merged above
		}
		out.push(p, i)
		i++
	}
	p.keys, p.vals, p.groupStripes = out.keys, out.vals, out.groupStripes
}

// push appends group g of o, whose slots are laid out as p's.
func (p *AggPartial) push(o *AggPartial, g int) {
	p.keys, p.vals = append(p.keys, o.keys[g]), append(p.vals, o.values(g)...)
	p.add()
	p.take(len(p.keys)-1, &o.groupStripes, g)
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
// result is deterministic: each slot's totals are folded over the groups
// in the partial's key order. Returns nil when the partial has no groups.
func (p *AggPartial) SlotMoments() []SlotMoment {
	if p == nil || len(p.keys) == 0 {
		return nil
	}
	out := make([]SlotMoment, len(p.slots))
	for g := range p.keys {
		for j := range out {
			st := p.state(g, j)
			out[j].Estimate += st.ht.Sum()
			out[j].Variance += st.ht.SumVariance()
			out[j].N += st.ht.N()
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
	for _, st := range p.slots {
		for g := range st.ht {
			st.ht[g].ScalePopulation(r)
		}
		for g := range st.whole {
			st.whole[g].ht.ScalePopulation(r)
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
	return run(ctx, root, part, 0)
}
