package sample

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// The uniform sampler's decisions, remembered.
//
// Whether a uniform sampler keeps row r is a pure function of its seed, its
// rate and r, and deciding costs a hash per row — as much as reading the
// row. So the decisions are made once per (seed, rate) into a bitmap over
// row ids, and a scan reads only the rows whose bits are set. The bitmaps
// live in one process-wide table: a query at a pair no query has used
// before pays the hash over the table's rows once, split across its scan's
// workers, and every later one at that pair pays nothing for its sample.

// maxKeptEntries caps the table at this many (seed, rate) bitmaps, each
// one bit per row of the largest table scanned at its pair; a new pair
// evicts the least recently used. Callers choose the pairs — a remote
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

// ForgetKept empties the table, as at process start: the next scan at any
// (seed, rate) pays its hashes again. It is for measuring that cost.
func ForgetKept() {
	keptMemo.mu.Lock()
	defer keptMemo.mu.Unlock()
	clear(keptMemo.entries)
}

// KeptStats counts the table's lookups since the process started. A hit
// found its rows decided; a miss decided a pair's rows for the first time
// (again after an eviction or a cancelled fill); a grow decided the rows of
// a larger table than the pair had seen. Without evictions, Misses is the
// number of distinct pairs the process has scanned at.
type KeptStats struct {
	Hits, Misses, Grows, Evictions int64
	Entries                        int // bitmaps held now
}

// KeptMemoStats returns the table's counts.
func KeptMemoStats() KeptStats {
	m := keptMemo
	m.mu.Lock()
	defer m.mu.Unlock()
	return KeptStats{Hits: m.hits.Load(), Misses: m.misses.Load(), Grows: m.grows.Load(),
		Evictions: m.evictions, Entries: len(m.entries)}
}

// keeps is the sampler's coin for a row, as Decide flips it.
func (u *Uniform) keeps(row int) bool {
	return hashToUnit(stats.SplitMix64(u.seed^stats.SplitMix64(uint64(row)))) < u.p
}

// keptCut is the coin as an integer test: keeps(r) iff the top 53 bits of
// r's hash are below it. hashToUnit(h) is exactly (h>>11)·2⁻⁵³, and scaling
// p by 2⁵³ is exact, so the test is Decide's own.
func keptCut(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	return uint64(math.Ceil(min(p, 1) * (1 << 53)))
}

// word decides the 64 rows of bitmap word w without a branch: x - cut wraps
// to a set top bit exactly when x < cut, as both are below 2⁵⁴.
func (u *Uniform) word(w int, cut uint64) uint64 {
	var bits uint64
	row := uint64(w) * 64
	for i := range uint64(64) {
		x := stats.SplitMix64(u.seed^stats.SplitMix64(row+i)) >> 11
		bits |= (x - cut) >> 63 << i
	}
	return bits
}

// fill decides words[from:], split into ranges of at least fillGrainWords
// across up to workers goroutines, the first on the caller's.
func (u *Uniform) fill(ctx context.Context, words []uint64, from, workers int) error {
	cut, workers := keptCut(u.p), max(workers, 1)
	span := max((len(words)-from+workers-1)/workers, fillGrainWords)
	run := func(lo, hi int) {
		for w := lo; w < hi; w++ {
			if (w-lo)%fillCheckWords == 0 && ctx.Err() != nil {
				return
			}
			words[w] = u.word(w, cut)
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

// keptKey names a bitmap. The rate is keyed by its bits: a NaN map key
// could never be found or deleted again (Validate refuses a NaN rate too).
type keptKey struct{ seed, rate uint64 }

// keptEntry is one pair's bitmap. The published bitmap is read without a
// lock; a caller that must decide more rows holds the entry's fill slot, not
// the table's lock, so concurrent first callers hash the rows once between
// them, callers at other pairs do not wait, and a waiter can give up when
// its context ends.
type keptEntry struct {
	words atomic.Pointer[[]uint64]
	fill  chan struct{} // a one-slot semaphore
	used  uint64        // the table's clock at the last lookup, under the table's lock
}

// keptTable holds the bitmaps by pair, at most maxKeptEntries of them.
type keptTable struct {
	mu        sync.Mutex
	clock     uint64
	entries   map[keptKey]*keptEntry
	evictions int64 // under mu

	hits, misses, grows atomic.Int64
}

var keptMemo = &keptTable{entries: make(map[keptKey]*keptEntry)}

// entry returns the pair's entry, making room for it at the cap.
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

// get returns u's bitmap over at least n rows, deciding the rows no caller
// has asked for before into a copy.
func (m *keptTable) get(ctx context.Context, u *Uniform, n, workers int) ([]uint64, error) {
	if n <= 0 {
		return nil, nil
	}
	words := (n + 63) / 64
	e := m.entry(keptKey{seed: u.seed, rate: math.Float64bits(u.p)})
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
	if err := u.fill(ctx, b, len(from), workers); err != nil {
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
