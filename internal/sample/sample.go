// Package sample implements the sampler taxonomy surveyed by the paper:
// uniform (Bernoulli) row sampling, block/page sampling, reservoir
// sampling, the distinct sampler (which keeps rare strata whole so
// group-by queries do not lose groups), the universe sampler (which hashes
// join keys so both sides of a join retain an identical key subset), and
// offline stratified-sample construction.
//
// Every sampler is deterministic given its seed: inclusion decisions are
// pure functions of (seed, row identity), so plans can be re-executed and
// the pushdown rewrites in internal/plan preserve sample distributions.
package sample

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/stats"
	"repro/internal/storage"
)

// Kind enumerates sampler families.
type Kind uint8

// Sampler kinds.
const (
	KindNone Kind = iota
	KindUniformRow
	KindBlock
	KindDistinct
	KindUniverse
	KindBiLevel
)

// String names the sampler kind.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindUniformRow:
		return "uniform"
	case KindBlock:
		return "block"
	case KindDistinct:
		return "distinct"
	case KindUniverse:
		return "universe"
	case KindBiLevel:
		return "bilevel"
	}
	return "?"
}

// Spec declares a sampler to apply at a table scan.
type Spec struct {
	Kind Kind
	// Rate is the Bernoulli inclusion probability in (0, 1]. For the
	// bi-level sampler it is the *block*-level rate.
	Rate float64
	// RowRate is the within-block row rate of the bi-level sampler
	// (ignored by the other kinds). Overall rate = Rate · RowRate.
	RowRate float64
	// KeyColumns are the stratification (distinct) or hash (universe)
	// columns. Unused for uniform and block sampling.
	KeyColumns []string
	// KeepThreshold is the distinct sampler's per-stratum pass-through
	// count: the first KeepThreshold rows of every stratum are kept with
	// weight 1, guaranteeing small groups survive.
	KeepThreshold int
	// Seed randomizes uniform/block/distinct decisions. The universe
	// sampler deliberately ignores Seed for its hash (both join sides
	// must agree) unless Salt is set.
	Seed int64
	// Salt perturbs the universe hash; both sides of a join must share it.
	Salt uint64
	// NoWeight makes a universe sampler's kept rows carry weight 1 instead
	// of 1/Rate; no other kind takes it. Used for the non-carrying side of
	// a universe-sampled join: when both sides share salt and rate, a
	// joined pair's inclusion probability is Rate (decisions are perfectly
	// correlated), so exactly one side must carry the Horvitz–Thompson
	// weight.
	NoWeight bool
}

// Validate checks internal consistency of the spec.
func (s Spec) Validate() error {
	if s.Kind == KindNone {
		return nil
	}
	if s.Kind > KindBiLevel {
		return fmt.Errorf("sample: unknown sampler kind %d", s.Kind)
	}
	// Written so that a NaN rate, for which every comparison is false, fails.
	if !(s.Rate > 0 && s.Rate <= 1) {
		return fmt.Errorf("sample: rate %v out of (0,1]", s.Rate)
	}
	switch s.Kind {
	case KindDistinct, KindUniverse:
		if len(s.KeyColumns) == 0 {
			return fmt.Errorf("sample: %s sampler requires key columns", s.Kind)
		}
	}
	if s.Kind == KindDistinct && s.KeepThreshold <= 0 {
		return fmt.Errorf("sample: distinct keep threshold %d is not positive", s.KeepThreshold)
	}
	if s.NoWeight && s.Kind != KindUniverse {
		// Only a universe-sampled join's second side has its weight carried
		// by another scan.
		return fmt.Errorf("sample: the %s sampler takes no unit weight", s.Kind)
	}
	if s.Kind == KindBiLevel && !(s.RowRate > 0 && s.RowRate <= 1) {
		return fmt.Errorf("sample: bilevel row rate %v out of (0,1]", s.RowRate)
	}
	return nil
}

// String renders the spec for EXPLAIN output.
func (s Spec) String() string {
	if s.Kind == KindNone {
		return "none"
	}
	b := fmt.Sprintf("%s(p=%.4g", s.Kind, s.Rate)
	if len(s.KeyColumns) > 0 {
		b += ", keys=" + strings.Join(s.KeyColumns, ",")
	}
	if s.Kind == KindDistinct {
		b += fmt.Sprintf(", keep=%d", s.KeepThreshold)
	}
	if s.Kind == KindBiLevel {
		b += fmt.Sprintf(", rowRate=%.4g", s.RowRate)
	}
	return b + ")"
}

// hashToUnit maps a 64-bit hash to [0, 1).
func hashToUnit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// RowDecision is the outcome of a sampling decision for one row.
type RowDecision struct {
	Keep   bool
	Weight float64 // 1/π, the Horvitz–Thompson weight; 0 if dropped
}

// Stages is a spec as a scan applies it: a block stage that skips whole
// blocks, and at most one row stage that thins the rows of kept blocks.
// Weight is what a kept row carries on top of its block's weight: 1/p of
// the row stage (a distinct stage's pass-through rows weigh 1), or 1
// under NoWeight and with no row stage.
type Stages struct {
	Block    *Block
	Uniform  *Uniform
	Distinct *Distinct
	Universe *Universe
	Weight   float64
}

// Stages validates s and returns the stages a scan applies. Bi-level is a
// block stage at Rate plus a uniform row stage at RowRate on a seed of its
// own: skipping blocks keeps the I/O savings, thinning their rows undoes
// the block design effect (the Haas–König remedy).
func (s Spec) Stages() (Stages, error) {
	st := Stages{Weight: 1}
	if err := s.Validate(); err != nil {
		return st, err
	}
	rate := s.Rate
	switch s.Kind {
	case KindUniformRow:
		st.Uniform = NewUniform(s.Rate, s.Seed)
	case KindBlock:
		st.Block = NewBlock(s.Rate, s.Seed)
		return st, nil
	case KindBiLevel:
		st.Block = NewBlock(s.Rate, s.Seed)
		st.Uniform, rate = NewUniform(s.RowRate, s.Seed^0x5bd1e995), s.RowRate
	case KindDistinct:
		st.Distinct = NewDistinct(s.Rate, s.KeepThreshold, s.Seed)
	case KindUniverse:
		st.Universe = NewUniverse(s.Rate, s.Salt)
	default:
		return st, nil
	}
	if !s.NoWeight {
		st.Weight = 1 / rate
	}
	return st, nil
}

// Uniform is Bernoulli row-level sampling: each row is kept independently
// with probability p; kept rows carry weight 1/p.
type Uniform struct {
	p    float64
	seed uint64
}

// NewUniform returns a uniform row sampler.
func NewUniform(p float64, seed int64) *Uniform {
	return &Uniform{p: p, seed: uint64(seed)}
}

// Decide returns the decision for the row at index rowIdx. A scan asks
// Kept instead, a table at a time.
func (u *Uniform) Decide(rowIdx int) RowDecision {
	if u.keeps(rowIdx) {
		return RowDecision{Keep: true, Weight: 1 / u.p}
	}
	return RowDecision{}
}

// Block is block-level (page) Bernoulli sampling: whole blocks of a
// table's storage are kept with probability p; rows in kept blocks carry
// weight 1/p. It is the TABLESAMPLE SYSTEM analogue and the source of the
// "system efficiency vs. statistical efficiency" trade-off: it reads
// 1/p-th of the data sequentially but rows within a block are correlated.
type Block struct {
	p    float64
	seed uint64
}

// NewBlock returns a block sampler.
func NewBlock(p float64, seed int64) *Block {
	return &Block{p: p, seed: uint64(seed)}
}

// DecideBlock returns the decision for an entire block.
func (b *Block) DecideBlock(blockIdx int) RowDecision {
	h := stats.SplitMix64(b.seed ^ stats.SplitMix64(uint64(blockIdx)*0x5851f42d4c957f2d+1))
	if hashToUnit(h) < b.p {
		return RowDecision{Keep: true, Weight: 1 / b.p}
	}
	return RowDecision{}
}

// Universe keeps a row iff the hash of its key columns falls below p.
// Applying the same universe sampler (same key domain and salt) to both
// sides of an equi-join keeps *aligned* key subsets, so the join of the
// samples equals a p-fraction (by key universe) of the true join — the
// sampler Quickr introduces to make join sampling effective.
type Universe struct {
	p    float64
	salt uint64
}

// NewUniverse returns a universe sampler. Both join sides must use equal
// salt.
func NewUniverse(p float64, salt uint64) *Universe {
	return &Universe{p: p, salt: salt}
}

// Decide returns the decision for a row whose sampler key is key. It
// depends only on the key, so all rows with one key are kept or dropped
// together, on every table.
func (u *Universe) Decide(key string) RowDecision {
	h := stats.SplitMix64(hashString(key) ^ u.salt)
	if hashToUnit(h) < u.p {
		return RowDecision{Keep: true, Weight: 1 / u.p}
	}
	return RowDecision{}
}

// hashString hashes a canonical key string.
func hashString(s string) uint64 {
	// FNV-1a, inlined to avoid allocation.
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return stats.SplitMix64(h)
}

// Distinct passes the first KeepThreshold rows of every stratum (distinct
// key-column combination) with weight 1, then samples the remainder of the
// stratum at rate p with weight 1/p. Rare groups therefore survive whole
// while frequent values are thinned — the sampler that rescues skewed
// GROUP BY queries.
//
// Distinct is stateful (it counts rows per stratum) and must see rows in a
// deterministic order for reproducibility: the serial scan feeds Decide in
// row order, the morsel scan keeps the counts itself and calls KeepRows.
type Distinct struct {
	p    float64
	keep int
	seed uint64
	seen map[string]*int // rows seen per stratum; a pointer, so a row costs one map probe
}

// NewDistinct returns a distinct sampler with per-stratum pass-through
// count keep and tail rate p.
func NewDistinct(p float64, keep int, seed int64) *Distinct {
	return &Distinct{p: p, keep: keep, seed: uint64(seed), seen: make(map[string]*int)}
}

// Decide returns the decision for the row at index rowIdx whose stratum is
// key, counting it against the stratum's pass-through.
func (d *Distinct) Decide(rowIdx int, key string) RowDecision {
	count := d.seen[key]
	if count == nil {
		count = new(int)
		d.seen[key] = count
	}
	n := *count
	*count++
	if n < d.keep {
		return RowDecision{Keep: true, Weight: 1}
	}
	// The tail's Bernoulli trial, a function of the seed and the row: the
	// bit Kept remembers.
	if hashToUnit(tailHash(d.seed, uint64(rowIdx))) < d.p {
		return RowDecision{Keep: true, Weight: 1 / d.p}
	}
	return RowDecision{}
}

// KeepRows is Decide over a run of rows whose strata the caller has
// numbered and counts itself: strata[i] is the stratum of rows[i], and
// seen[s] how many rows of stratum s came before the run, counted as far
// as the pass-through and advanced as the run goes. kept is the sampler's
// Kept bitmap over the rows, read in place of the coin. The rows it keeps
// move to the front of rows, in order, their strata to the front of strata,
// and their weights into ws: 1 among the first keep rows of its stratum,
// 1/p for a later row the coin keeps. It returns how many it kept. The
// receiver's own counts take no part, so one sampler serves any number of
// callers.
func (d *Distinct) KeepRows(kept []uint64, rows, strata, seen []int32, ws []float64) int {
	keep, tail := int32(min(d.keep, math.MaxInt32)), 1/d.p
	k := 0
	for i, r := range rows {
		s, w := strata[i], tail
		if n := seen[s]; n < keep {
			seen[s], w = n+1, 1
		} else if kept[r>>6]>>(r&63)&1 == 0 {
			continue
		}
		rows[k], strata[k], ws[k] = r, s, w
		k++
	}
	return k
}

// KeyOf renders the canonical sampler key for a row: the concatenated
// group keys of the key column values, in spec order.
func KeyOf(vals []storage.Value) string {
	if len(vals) == 1 {
		return vals[0].GroupKey()
	}
	var b strings.Builder
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(0x1f)
		}
		b.WriteString(v.GroupKey())
	}
	return b.String()
}

// maxCachedKeys bounds the composite-key table a Keyer keeps for an
// all-dictionary column tuple; a larger code space builds keys per row.
const maxCachedKeys = 1 << 12

// Keyer renders the canonical sampler key (KeyOf) of one column tuple row
// by row. Where storage already holds the key it boxes and allocates
// nothing: a single dictionary-encoded column answers with its cached
// per-code key, and a tuple of dictionary columns with a small code space
// fills a table of composite keys the first time each combination is
// seen. Every other tuple builds the key per row, as KeyOf does. A Keyer
// is not safe for concurrent use; give each goroutine its own.
type Keyer struct {
	cols  []storage.Column
	dicts []*storage.StringColumn // parallels cols when every column is dictionary-encoded
	cache []string                // composite key per code tuple; "" until first seen
	vals  []storage.Value
}

// NewKeyer returns a Keyer over the given columns of t, in key order.
func NewKeyer(t *storage.Table, cols []int) *Keyer {
	k := &Keyer{cols: make([]storage.Column, len(cols)), vals: make([]storage.Value, len(cols))}
	for i, idx := range cols {
		k.cols[i] = t.Column(idx)
		if d, ok := k.cols[i].(*storage.StringColumn); ok {
			k.dicts = append(k.dicts, d)
		}
	}
	if len(k.dicts) < len(cols) {
		k.dicts = nil
	} else if space := storage.CodeSpace(k.dicts, maxCachedKeys); len(cols) > 1 && space > 0 {
		k.cache = make([]string, space)
	}
	return k
}

// Key returns the canonical sampler key of the row.
func (k *Keyer) Key(row int) string {
	if len(k.dicts) == 1 {
		return k.dicts[0].RowKey(row)
	}
	if k.cache == nil {
		return k.build(row)
	}
	slot := storage.CodeSlot(k.dicts, row)
	if k.cache[slot] == "" {
		k.cache[slot] = k.build(row)
	}
	return k.cache[slot]
}

func (k *Keyer) build(row int) string {
	for i, c := range k.cols {
		k.vals[i] = c.Value(row)
	}
	return KeyOf(k.vals)
}
