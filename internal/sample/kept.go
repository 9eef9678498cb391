package sample

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// The samplers' coins, remembered.
//
// Whether a uniform sampler keeps row r, and whether the distinct sampler's
// tail coin keeps r once its stratum is past the pass-through, are pure
// functions of the sampler's seed, its rate and r, and flipping a coin costs
// a hash per row — as much as reading the row. So each coin is flipped once
// per (seed, rate) into a bitmap over row ids: a uniform scan reads only the
// rows whose bits are set, and the distinct sampler reads a row's bit where
// it would have flipped the coin. The bitmaps live in one process-wide
// table, keyed by the coin too, so the two samplers at one (seed, rate)
// never share one: a query at a key no query has used before pays the
// hashes over the table's rows once, split across its scan's workers, and
// every later one at that key pays nothing for its coins.

// maxKeptEntries caps the table at this many (coin, seed, rate) bitmaps,
// each one bit per row of the largest table scanned at its key; a new key
// evicts the least recently used. Callers choose the keys — a remote
// shard's estimate request carries its own sampler spec — so the cap, not
// the callers, bounds the memory.
const maxKeptEntries = 64

const (
	// fillGrainWords is the fewest bitmap words (64 rows each) worth a
	// goroutine of their own when a bitmap is filled.
	fillGrainWords = 1024
	// fillCheckWords is how many words a filler decides between looks at
	// its context, so a deadline can stop a fill over a large table.
	fillCheckWords = 1024
)

// Kept returns the rows [0, n) u keeps, as a bitmap: bit r%64 of word r/64
// is set iff Decide keeps row r, for every r below 64 times the number of
// words. The slice is shared: it must not be written, and it never changes,
// since a bitmap grown for a later caller is a new one. Rows no caller has
// asked for before are decided by up to workers goroutines; if ctx ends
// first, Kept returns its error and remembers nothing new.
func (u *Uniform) Kept(ctx context.Context, n, workers int) ([]uint64, error) {
	return keptMemo.get(ctx, u, n, workers)
}

// Kept returns d's tail coin over the rows [0, n), as a bitmap: bit r%64 of
// word r/64 is set iff the coin keeps row r once its stratum is past the
// pass-through, which is all Decide asks of r beyond the stratum's count.
// KeepRows reads it. It is shared and filled as Uniform.Kept's is.
func (d *Distinct) Kept(ctx context.Context, n, workers int) ([]uint64, error) {
	return keptMemo.get(ctx, d, n, workers)
}

// ForgetKept empties the table, as at process start: the next scan at any
// (coin, seed, rate) pays its hashes again. It is for measuring that cost.
func ForgetKept() {
	keptMemo.mu.Lock()
	defer keptMemo.mu.Unlock()
	clear(keptMemo.entries)
}

// KeptStats counts the table's lookups since the process started, of both
// samplers' coins alike. A hit found its rows decided; a miss decided a
// key's rows for the first time (again after an eviction or a cancelled
// fill); a grow decided the rows of a larger table than the key had seen.
// Without evictions, Misses is the number of distinct (coin, seed, rate)
// keys the process has scanned at.
type KeptStats struct {
	Hits, Misses, Grows, Evictions int64
	Entries                        int // bitmaps held now
}

// KeptMemoStats returns the table's counts, both coins together.
func KeptMemoStats() KeptStats {
	m := keptMemo
	m.mu.Lock()
	defer m.mu.Unlock()
	return KeptStats{Hits: m.hits.Load(), Misses: m.misses.Load(), Grows: m.grows.Load(),
		Evictions: m.evictions, Entries: len(m.entries)}
}

// uniformHash is the hash the uniform sampler's coin flips for a row: the
// coin keeps the row iff hashToUnit of it is below the rate.
func uniformHash(seed, row uint64) uint64 {
	return stats.SplitMix64(seed ^ stats.SplitMix64(row))
}

// tailHash is the hash the distinct sampler's tail coin flips for a row,
// read as uniformHash is.
func tailHash(seed, row uint64) uint64 {
	return stats.SplitMix64(seed ^ stats.SplitMix64(row*0x9e3779b97f4a7c15+7))
}

// keeps is the sampler's coin for a row, as Decide flips it.
func (u *Uniform) keeps(row int) bool {
	return hashToUnit(uniformHash(u.seed, uint64(row))) < u.p
}

// keptCut is the coin as an integer test: a coin keeps a row iff the top 53
// bits of its hash are below it. hashToUnit(h) is exactly (h>>11)·2⁻⁵³, and
// scaling p by 2⁵³ is exact, so the test is Decide's own.
func keptCut(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	return uint64(math.Ceil(min(p, 1) * (1 << 53)))
}

// keptCoin is a sampler whose coin the table remembers.
type keptCoin interface {
	keptKey() keptKey
	// word flips the coin for the 64 rows of bitmap word w, against
	// keptCut of the rate.
	word(w int, cut uint64) uint64
}

func (u *Uniform) keptKey() keptKey {
	return keptKey{coin: uniformCoin, seed: u.seed, rate: math.Float64bits(u.p)}
}

func (d *Distinct) keptKey() keptKey {
	return keptKey{coin: tailCoin, seed: d.seed, rate: math.Float64bits(d.p)}
}

// word decides the 64 rows of bitmap word w without a branch: x - cut wraps
// to a set top bit exactly when x < cut, as both are below 2⁵⁴.
func (u *Uniform) word(w int, cut uint64) uint64 {
	var bits uint64
	row := uint64(w) * 64
	for i := range uint64(64) {
		bits |= (uniformHash(u.seed, row+i)>>11 - cut) >> 63 << i
	}
	return bits
}

// word is Uniform.word for the tail coin.
func (d *Distinct) word(w int, cut uint64) uint64 {
	var bits uint64
	row := uint64(w) * 64
	for i := range uint64(64) {
		bits |= (tailHash(d.seed, row+i)>>11 - cut) >> 63 << i
	}
	return bits
}

// fill decides words[from:] by c's coin, split into ranges of at least
// fillGrainWords across up to workers goroutines, the first on the caller's.
func fill(ctx context.Context, c keptCoin, words []uint64, from, workers int) error {
	cut, workers := keptCut(math.Float64frombits(c.keptKey().rate)), max(workers, 1)
	span := max((len(words)-from+workers-1)/workers, fillGrainWords)
	run := func(lo, hi int) {
		for w := lo; w < hi; w++ {
			if (w-lo)%fillCheckWords == 0 && ctx.Err() != nil {
				return
			}
			words[w] = c.word(w, cut)
		}
	}
	var wg sync.WaitGroup
	for lo := from + span; lo < len(words); lo += span {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			run(lo, hi)
		}(lo, min(lo+span, len(words)))
	}
	run(from, min(from+span, len(words)))
	wg.Wait()
	return ctx.Err()
}

// coinKind is which sampler's coin a bitmap holds.
type coinKind uint8

const (
	uniformCoin coinKind = iota // Uniform's
	tailCoin                    // Distinct's, past the pass-through
)

// keptKey names a bitmap: the coin it holds and the sampler's seed and
// rate. The rate is keyed by its bits: a NaN map key could never be found
// or deleted again (Validate refuses a NaN rate too).
type keptKey struct {
	coin       coinKind
	seed, rate uint64
}

// keptEntry is one key's bitmap. The published bitmap is read without a
// lock; a caller that must decide more rows holds the entry's fill slot, not
// the table's lock, so concurrent first callers hash the rows once between
// them, callers at other keys do not wait, and a waiter can give up when
// its context ends.
type keptEntry struct {
	words atomic.Pointer[[]uint64]
	fill  chan struct{} // a one-slot semaphore
	used  uint64        // the table's clock at the last lookup, under the table's lock
}

// keptTable holds the bitmaps by key, at most maxKeptEntries of them.
type keptTable struct {
	mu        sync.Mutex
	clock     uint64
	entries   map[keptKey]*keptEntry
	evictions int64 // under mu

	hits, misses, grows atomic.Int64
}

var keptMemo = &keptTable{entries: make(map[keptKey]*keptEntry)}

// entry returns the key's entry, making room for it at the cap.
func (m *keptTable) entry(k keptKey) *keptEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock++
	e := m.entries[k]
	if e == nil {
		if len(m.entries) >= maxKeptEntries {
			var lru keptKey
			oldest := uint64(math.MaxUint64)
			for key, old := range m.entries {
				if old.used < oldest {
					lru, oldest = key, old.used
				}
			}
			// A caller still filling the evicted entry finishes and keeps
			// its bitmap; only the table forgets it.
			delete(m.entries, lru)
			m.evictions++
		}
		e = &keptEntry{fill: make(chan struct{}, 1)}
		m.entries[k] = e
	}
	e.used = m.clock
	return e
}

// get returns c's bitmap over at least n rows, deciding the rows no caller
// has asked for before into a copy.
func (m *keptTable) get(ctx context.Context, c keptCoin, n, workers int) ([]uint64, error) {
	if n <= 0 {
		return nil, nil
	}
	words := (n + 63) / 64
	e := m.entry(c.keptKey())
	if old := e.words.Load(); old != nil && len(*old) >= words {
		m.hits.Add(1)
		return (*old)[:words], nil
	}
	select {
	case e.fill <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-e.fill }()
	var from []uint64
	if old := e.words.Load(); old != nil {
		if from = *old; len(from) >= words {
			m.hits.Add(1) // decided by the caller this one waited for
			return from[:words], nil
		}
	}
	b := make([]uint64, words)
	copy(b, from)
	if err := fill(ctx, c, b, len(from), workers); err != nil {
		return nil, err
	}
	e.words.Store(&b)
	if from == nil {
		m.misses.Add(1)
	} else {
		m.grows.Add(1)
	}
	return b, nil
}
