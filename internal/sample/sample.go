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
	// NoWeight makes kept rows carry weight 1 instead of 1/Rate. Used for
	// the non-carrying side of a universe-sampled join: when both sides
	// share salt and rate, a joined pair's inclusion probability is Rate
	// (decisions are perfectly correlated), so exactly one side must
	// carry the Horvitz–Thompson weight.
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
	if s.Kind == KindDistinct && s.KeepThreshold < 0 {
		return fmt.Errorf("sample: negative keep threshold")
	}
	if s.Kind == KindDistinct && s.NoWeight {
		// Its rows carry two weights; forcing both to 1 is no sampler's design.
		return fmt.Errorf("sample: the distinct sampler takes no unit weight")
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

// splitmix64 is the SplitMix64 finalizer; a high-quality 64-bit mixer used
// to turn (seed, index) into pseudo-random bits deterministically.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
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

// RowSampler decides row inclusion in streaming fashion.
type RowSampler interface {
	// Decide returns the decision for the row at absolute index rowIdx
	// whose sampler key (canonical string of the key columns) is key.
	// Samplers that do not use keys ignore it.
	Decide(rowIdx int, key string) RowDecision
	// Rate returns the configured base sampling rate.
	Rate() float64
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

// Rate implements RowSampler.
func (u *Uniform) Rate() float64 { return u.p }

// Decide implements RowSampler. A scan asks Kept instead, a table at a time.
func (u *Uniform) Decide(rowIdx int, _ string) RowDecision {
	if u.keeps(rowIdx) {
		return RowDecision{Keep: true, Weight: 1 / u.p}
	}
	return RowDecision{}
}

// Block is block-level (page) Bernoulli sampling: whole blocks of
// blockSize rows are kept with probability p; rows in kept blocks carry
// weight 1/p. It is the TABLESAMPLE SYSTEM analogue and the source of the
// "system efficiency vs. statistical efficiency" trade-off: it reads
// 1/p-th of the data sequentially but rows within a block are correlated.
type Block struct {
	p         float64
	seed      uint64
	blockSize int
}

// NewBlock returns a block sampler over blocks of blockSize rows.
func NewBlock(p float64, blockSize int, seed int64) *Block {
	if blockSize <= 0 {
		blockSize = storage.DefaultBlockSize
	}
	return &Block{p: p, seed: uint64(seed), blockSize: blockSize}
}

// Rate implements RowSampler.
func (b *Block) Rate() float64 { return b.p }

// DecideBlock returns the decision for an entire block.
func (b *Block) DecideBlock(blockIdx int) RowDecision {
	h := splitmix64(b.seed ^ splitmix64(uint64(blockIdx)*0x5851f42d4c957f2d+1))
	if hashToUnit(h) < b.p {
		return RowDecision{Keep: true, Weight: 1 / b.p}
	}
	return RowDecision{}
}

// Decide implements RowSampler by delegating to the row's block.
func (b *Block) Decide(rowIdx int, _ string) RowDecision {
	return b.DecideBlock(rowIdx / b.blockSize)
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

// Rate implements RowSampler.
func (u *Universe) Rate() float64 { return u.p }

// Decide implements RowSampler. The decision depends only on the key, so
// all rows with one key are kept or dropped together, on every table.
func (u *Universe) Decide(_ int, key string) RowDecision {
	h := splitmix64(hashString(key) ^ u.salt)
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
	return splitmix64(h)
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
	if keep <= 0 {
		keep = 1
	}
	return &Distinct{p: p, keep: keep, seed: uint64(seed), seen: make(map[string]*int)}
}

// Rate implements RowSampler.
func (d *Distinct) Rate() float64 { return d.p }

// StrataSeen returns the number of distinct strata observed so far.
func (d *Distinct) StrataSeen() int { return len(d.seen) }

// Decide implements RowSampler.
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
	if d.coin(rowIdx) {
		return RowDecision{Keep: true, Weight: 1 / d.p}
	}
	return RowDecision{}
}

// coin is the tail's Bernoulli trial, a function of the seed and the row.
func (d *Distinct) coin(rowIdx int) bool {
	return hashToUnit(splitmix64(d.seed^splitmix64(uint64(rowIdx)*0x9e3779b97f4a7c15+7))) < d.p
}

// KeepRows is Decide over a run of rows whose strata the caller has
// numbered and counts itself: strata[i] is the stratum of rows[i], and
// seen[s] how many rows of stratum s came before the run, counted as far
// as the pass-through and advanced as the run goes. ws[i] becomes the
// weight rows[i] is kept at: 1 among the first keep rows of its stratum,
// 1/p for a later row the coin keeps, 0 for one it drops. The receiver's
// own counts take no part, so one sampler serves any number of callers.
func (d *Distinct) KeepRows(rows, strata, seen []int32, ws []float64) {
	keep, tail := int32(min(d.keep, math.MaxInt32)), 1/d.p
	for i, r := range rows {
		s := strata[i]
		switch n := seen[s]; {
		case n < keep:
			seen[s], ws[i] = n+1, 1
		case d.coin(int(r)):
			ws[i] = tail
		default:
			ws[i] = 0
		}
	}
}

// BiLevel composes block-level Bernoulli sampling (rate pb, so non-sampled
// blocks are skipped entirely) with within-block row-level Bernoulli
// sampling (rate pr). Kept rows carry weight 1/(pb·pr). The
// Haas–König-style remedy for the block design effect: block skipping
// keeps the I/O savings, within-block thinning decorrelates the rows.
type BiLevel struct {
	block *Block
	row   *Uniform
}

// NewBiLevel returns a bi-level sampler.
func NewBiLevel(blockRate, rowRate float64, blockSize int, seed int64) *BiLevel {
	return &BiLevel{
		block: NewBlock(blockRate, blockSize, seed),
		row:   NewUniform(rowRate, seed^0x5bd1e995),
	}
}

// Rate implements RowSampler with the overall inclusion probability.
func (b *BiLevel) Rate() float64 { return b.block.Rate() * b.row.Rate() }

// BlockSampler exposes the block stage for scan-level block skipping.
func (b *BiLevel) BlockSampler() *Block { return b.block }

// RowStage exposes the within-block stage, for rows of kept blocks.
func (b *BiLevel) RowStage() *Uniform { return b.row }

// Decide implements RowSampler (combined stages, for non-skipping paths).
func (b *BiLevel) Decide(rowIdx int, key string) RowDecision {
	bd := b.block.Decide(rowIdx, key)
	if !bd.Keep {
		return RowDecision{}
	}
	rd := b.row.Decide(rowIdx, key)
	if !rd.Keep {
		return RowDecision{}
	}
	return RowDecision{Keep: true, Weight: bd.Weight * rd.Weight}
}

// New constructs the RowSampler described by spec for a table with the
// given block size.
func New(spec Spec, blockSize int) (RowSampler, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var rs RowSampler
	switch spec.Kind {
	case KindUniformRow:
		rs = NewUniform(spec.Rate, spec.Seed)
	case KindBlock:
		rs = NewBlock(spec.Rate, blockSize, spec.Seed)
	case KindUniverse:
		rs = NewUniverse(spec.Rate, spec.Salt)
	case KindDistinct:
		rs = NewDistinct(spec.Rate, spec.KeepThreshold, spec.Seed)
	case KindBiLevel:
		rs = NewBiLevel(spec.Rate, spec.RowRate, blockSize, spec.Seed)
	case KindNone:
		return nil, nil
	default:
		return nil, fmt.Errorf("sample: unknown sampler kind %d", spec.Kind)
	}
	if spec.NoWeight {
		rs = unitWeight{rs}
	}
	return rs, nil
}

// unitWeight keeps the wrapped sampler's decisions but forces weight 1.
type unitWeight struct {
	inner RowSampler
}

// Rate implements RowSampler.
func (u unitWeight) Rate() float64 { return u.inner.Rate() }

// Decide implements RowSampler.
func (u unitWeight) Decide(rowIdx int, key string) RowDecision {
	d := u.inner.Decide(rowIdx, key)
	if d.Keep {
		d.Weight = 1
	}
	return d
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
