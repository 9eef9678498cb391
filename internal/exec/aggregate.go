package exec

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/storage"
)

type aggState struct {
	ht       stats.HTEstimator
	min, max storage.Value
	distinct map[string]struct{}
	weighted bool
	nonNull  float64
	// Percentile state: the (weighted) observed values.
	pctVals    []float64
	pctWeights []float64
}

type groupState struct {
	key      string
	groupVal []storage.Value
	aggs     []*aggState
	n        float64
}

// newGroupState builds an empty group state; groupVal is copied.
func newGroupState(key string, groupVal []storage.Value, slots int) *groupState {
	gs := &groupState{key: key}
	if len(groupVal) > 0 {
		gs.groupVal = append([]storage.Value(nil), groupVal...)
	}
	states := make([]aggState, slots)
	gs.aggs = make([]*aggState, slots)
	for j := range gs.aggs {
		gs.aggs[j] = &states[j]
	}
	return gs
}

// mergeGroupState folds src into dst; callers fold in a fixed order.
func mergeGroupState(dst, src *groupState) {
	dst.n += src.n
	for j := range dst.aggs {
		mergeAggState(dst.aggs[j], src.aggs[j])
	}
}

// mergeAggState folds one aggregate's partial state into another. Every
// component is a plain sum, union, extremum, or ordered concatenation, so
// folding partials in morsel (or shard) order reproduces the serial
// accumulation sequence of the same decomposition exactly.
func mergeAggState(dst, src *aggState) {
	dst.ht.Merge(src.ht)
	dst.weighted = dst.weighted || src.weighted
	dst.nonNull += src.nonNull
	if !src.min.IsNull() && (dst.min.IsNull() || src.min.Compare(dst.min) < 0) {
		dst.min = src.min
	}
	if !src.max.IsNull() && (dst.max.IsNull() || src.max.Compare(dst.max) > 0) {
		dst.max = src.max
	}
	if len(src.distinct) > 0 {
		if dst.distinct == nil {
			dst.distinct = make(map[string]struct{}, len(src.distinct))
		}
		for k := range src.distinct {
			dst.distinct[k] = struct{}{}
		}
	}
	dst.pctVals = append(dst.pctVals, src.pctVals...)
	dst.pctWeights = append(dst.pctWeights, src.pctWeights...)
}

// groupStripes is the aggregate state of a list of groups, a column per
// component, indexed by the group's place in the list: the rows each group
// folded, whether any of them weighed other than 1, and per aggregate slot
// its own column — the six HT sums of a SUM, COUNT or AVG a kernel folds,
// or the whole aggState of any other slot. A slot's non-null count is its
// HT row count: both grow by one per row the slot takes.
type groupStripes struct {
	n        []float64
	weighted []bool
	slots    []slotStripe
}

type slotStripe struct {
	ht    []stats.HTEstimator // nil for a whole-state slot
	whole []aggState
}

// htSlot reports whether a slot in the given mode keeps only HT sums.
func htSlot(mode int) bool {
	return mode == slotCountStar || mode == slotCountCol || mode == slotSumAvg
}

// newGroupStripes returns empty stripes for slots in the given modes, with
// room for size groups.
func newGroupStripes(modes []int, size int) groupStripes {
	s := groupStripes{n: make([]float64, 0, size), weighted: make([]bool, 0, size), slots: make([]slotStripe, len(modes))}
	for j, mode := range modes {
		if htSlot(mode) {
			s.slots[j].ht = make([]stats.HTEstimator, 0, size)
		} else {
			s.slots[j].whole = make([]aggState, 0, size)
		}
	}
	return s
}

// add appends an empty group.
func (s *groupStripes) add() {
	s.n, s.weighted = append(s.n, 0), append(s.weighted, false)
	for j := range s.slots {
		if st := &s.slots[j]; st.ht != nil {
			st.ht = append(st.ht, stats.HTEstimator{})
		} else {
			st.whole = append(st.whole, aggState{})
		}
	}
}

// take sets group g to group l of o.
func (s *groupStripes) take(g int, o *groupStripes, l int) {
	s.n[g], s.weighted[g] = o.n[l], o.weighted[l]
	for j, st := range s.slots {
		if st.ht != nil {
			st.ht[g] = o.slots[j].ht[l]
		} else {
			st.whole[g] = o.slots[j].whole[l]
		}
	}
}

// merge folds group l of o into group g, as mergeGroupState does.
func (s *groupStripes) merge(g int, o *groupStripes, l int) {
	s.n[g] += o.n[l]
	s.weighted[g] = s.weighted[g] || o.weighted[l]
	for j, st := range s.slots {
		if st.ht != nil {
			st.ht[g].Merge(o.slots[j].ht[l])
		} else {
			mergeAggState(&st.whole[g], &o.slots[j].whole[l])
		}
	}
}

// scanGroups is a scan's groups, by run-wide id, as the ordered reduction
// folds the morsels' partials into them.
type scanGroups struct {
	dict *groupDict
	groupStripes
	met   []bool // by id: some morsel has contributed
	count int    // the ids met
}

func newScanGroups(dict *groupDict, modes []int) *scanGroups {
	return &scanGroups{dict: dict, groupStripes: newGroupStripes(modes, len(dict.keys))}
}

// fold folds a morsel's partial in. The first contribution to a group is
// copied, later ones added component by component; a group the partial
// holds a place for but folded no row into is skipped.
func (sg *scanGroups) fold(p *morselPart) {
	for l, g := range p.ids {
		if p.n[l] == 0 && sg.dict.width > 0 {
			continue // a global aggregate's one group stands even so
		}
		for int(g) >= len(sg.met) {
			sg.add()
			sg.met = append(sg.met, false)
		}
		if sg.met[g] {
			sg.merge(int(g), &p.groupStripes, l)
			continue
		}
		sg.take(int(g), &p.groupStripes, l)
		sg.met[g] = true
		sg.count++
	}
}

// states returns the groups met as group states, keyed by canonical key.
func (sg *scanGroups) states() map[string]*groupState {
	slots := len(sg.slots)
	groups := make(map[string]*groupState, sg.count)
	gss := make([]groupState, 0, sg.count)
	aggs, ptrs := make([]aggState, sg.count*slots), make([]*aggState, sg.count*slots)
	for g, met := range sg.met {
		if !met {
			continue
		}
		at := len(gss) * slots
		gss = append(gss, groupState{key: sg.dict.keys[g], groupVal: sg.dict.values(g), n: sg.n[g],
			aggs: ptrs[at : at+slots : at+slots]})
		for j, st := range sg.slots {
			a := &aggs[at+j]
			if st.ht != nil {
				a.ht = st.ht[g]
				a.nonNull = a.ht.N()
			} else {
				*a = st.whole[g]
			}
			a.weighted = sg.weighted[g]
			ptrs[at+j] = a
		}
		gs := &gss[len(gss)-1]
		groups[gs.key] = gs
	}
	return groups
}

// finalizeGroups renders accumulated group states to output rows with
// per-group statistical details, ordered by canonical group key.
func finalizeGroups(node *plan.Aggregate, groups map[string]*groupState) ([][]storage.Value, []*GroupDetail) {
	// SQL semantics: a global aggregate over empty input yields one row.
	if len(groups) == 0 && len(node.GroupBy) == 0 {
		groups = map[string]*groupState{"": newGroupState("", nil, len(node.Aggs))}
	}

	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	if len(keys) == 0 {
		return nil, nil
	}
	// One allocation each for the cells, the details and their slots.
	width, slots := len(node.GroupBy)+len(node.Aggs), len(node.Aggs)
	cells, ds, aggs := make([]storage.Value, 0, len(keys)*width), make([]GroupDetail, len(keys)), make([]AggDetail, len(keys)*slots)
	rows, details := make([][]storage.Value, len(keys)), make([]*GroupDetail, len(keys))
	for i, k := range keys {
		gs := groups[k]
		at := len(cells)
		cells = append(cells, gs.groupVal...)
		ds[i] = GroupDetail{Key: gs.key, GroupN: gs.n, Aggs: aggs[i*slots : (i+1)*slots : (i+1)*slots]}
		for j, spec := range node.Aggs {
			v, d := finalize(gs.aggs[j], spec)
			cells = append(cells, v)
			ds[i].Aggs[j] = d
		}
		rows[i], details[i] = cells[at:len(cells):len(cells)], &ds[i]
	}
	return rows, details
}

func accumulate(st *aggState, spec plan.AggSpec, r expr.Row, w float64) error {
	if w != 1 {
		st.weighted = true
	}
	var v storage.Value
	if spec.Arg != nil {
		var err error
		v, err = spec.Arg.Eval(r)
		if err != nil {
			return err
		}
	}
	switch spec.Func {
	case sqlparse.AggCount:
		if spec.Star {
			st.ht.Add(1, w)
			st.nonNull++
			return nil
		}
		if v.IsNull() {
			return nil
		}
		if spec.Distinct {
			if st.distinct == nil {
				st.distinct = make(map[string]struct{})
			}
			st.distinct[v.GroupKey()] = struct{}{}
			return nil
		}
		st.ht.Add(1, w)
		st.nonNull++
	case sqlparse.AggSum, sqlparse.AggAvg:
		if v.IsNull() {
			return nil
		}
		if !v.Typ.Numeric() {
			return fmt.Errorf("exec: %s over non-numeric value", spec.Func)
		}
		st.ht.Add(v.AsFloat(), w)
		st.nonNull++
	case sqlparse.AggPercentile:
		if v.IsNull() {
			return nil
		}
		if !v.Typ.Numeric() {
			return fmt.Errorf("exec: PERCENTILE over non-numeric value")
		}
		st.pctVals = append(st.pctVals, v.AsFloat())
		st.pctWeights = append(st.pctWeights, w)
		st.nonNull++
	case sqlparse.AggMin:
		if v.IsNull() {
			return nil
		}
		st.nonNull++
		if st.min.IsNull() || v.Compare(st.min) < 0 {
			st.min = v
		}
	case sqlparse.AggMax:
		if v.IsNull() {
			return nil
		}
		st.nonNull++
		if st.max.IsNull() || v.Compare(st.max) > 0 {
			st.max = v
		}
	default:
		return fmt.Errorf("exec: unsupported aggregate %s", spec.Func)
	}
	return nil
}

func finalize(st *aggState, spec plan.AggSpec) (storage.Value, AggDetail) {
	switch spec.Func {
	case sqlparse.AggCount:
		if spec.Distinct {
			est := float64(len(st.distinct))
			return storage.Int64(int64(len(st.distinct))), AggDetail{
				Estimate: est, N: st.nonNull, Weighted: st.weighted, Supported: !st.weighted}
		}
		est := st.ht.Sum()
		return storage.Int64(int64(est + 0.5)), AggDetail{
			Estimate: est, Variance: st.ht.SumVariance(), N: st.ht.N(),
			Weighted: st.weighted, Supported: true}
	case sqlparse.AggSum:
		if st.nonNull == 0 {
			return storage.NullValue(storage.TypeFloat64), AggDetail{Supported: true}
		}
		return storage.Float64(st.ht.Sum()), AggDetail{
			Estimate: st.ht.Sum(), Variance: st.ht.SumVariance(), N: st.ht.N(),
			Weighted: st.weighted, Supported: true}
	case sqlparse.AggAvg:
		if st.nonNull == 0 {
			return storage.NullValue(storage.TypeFloat64), AggDetail{Supported: true}
		}
		return storage.Float64(st.ht.Mean()), AggDetail{
			Estimate: st.ht.Mean(), Variance: st.ht.MeanVariance(), N: st.ht.N(),
			Weighted: st.weighted, Supported: true}
	case sqlparse.AggMin:
		if st.min.IsNull() {
			return storage.NullValue(spec.OutType()), AggDetail{Supported: !st.weighted}
		}
		return st.min, AggDetail{Estimate: st.min.AsFloat(), N: st.nonNull,
			Weighted: st.weighted, Supported: !st.weighted}
	case sqlparse.AggMax:
		if st.max.IsNull() {
			return storage.NullValue(spec.OutType()), AggDetail{Supported: !st.weighted}
		}
		return st.max, AggDetail{Estimate: st.max.AsFloat(), N: st.nonNull,
			Weighted: st.weighted, Supported: !st.weighted}
	case sqlparse.AggPercentile:
		if len(st.pctVals) == 0 {
			return storage.NullValue(storage.TypeFloat64), AggDetail{Supported: true}
		}
		est, lo, hi := weightedQuantileWithDKW(st.pctVals, st.pctWeights, spec.Param, 0.95)
		return storage.Float64(est), AggDetail{
			Estimate: est, N: float64(len(st.pctVals)),
			Weighted: st.weighted, Supported: true,
			HasInterval: true, Lo: lo, Hi: hi}
	}
	return storage.Value{}, AggDetail{}
}

// weightedQuantileWithDKW computes the weighted q-quantile of the sample
// and a distribution-precision interval from the Dvoretzky–Kiefer–
// Wolfowitz inequality: with n observations, the empirical CDF deviates
// from the truth by more than ε with probability at most 2·e^(−2nε²), so
// the true q-quantile lies between the sample quantiles at q±ε.
func weightedQuantileWithDKW(vals, weights []float64, q, confidence float64) (est, lo, hi float64) {
	type vw struct{ v, w float64 }
	pairs := make([]vw, len(vals))
	var totalW float64
	for i := range vals {
		pairs[i] = vw{vals[i], weights[i]}
		totalW += weights[i]
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	quantile := func(p float64) float64 {
		if p <= 0 {
			return pairs[0].v
		}
		if p >= 1 {
			return pairs[len(pairs)-1].v
		}
		target := p * totalW
		var acc float64
		for _, pr := range pairs {
			acc += pr.w
			if acc >= target {
				return pr.v
			}
		}
		return pairs[len(pairs)-1].v
	}
	est = quantile(q)
	// DKW ε for the requested confidence; effective n is the observation
	// count (weights shift mass, observations carry the information).
	n := float64(len(pairs))
	eps := math.Sqrt(math.Log(2/(1-confidence)) / (2 * n))
	lo = quantile(q - eps)
	hi = quantile(q + eps)
	return est, lo, hi
}
