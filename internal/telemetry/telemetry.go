// Package telemetry turns the server's instantaneous metric gauges into
// an operable observability surface: a ring-buffer time-series store
// that snapshots every metric family on a fixed cadence, an SLO engine
// that evaluates declarative objectives over those series as
// multi-window burn rates, and a bounded flight recorder that retains
// the last N queries' tracers and fault events for postmortems. Every
// span view — a bundle's span trees, the OTLP-shaped feed (Feed) — is
// rendered from those tracers when read.
//
// The package deliberately sits *beside* the hot path, not on it: query
// execution writes to the ordinary metrics registry, and the store's
// collector copies that registry once per step under its own lock. A
// query never takes a telemetry lock; the only per-query telemetry cost
// is one flight-recorder append (a mutex and a ring slot).
package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
)

// Hist is the time-series snapshot of one histogram family: cumulative
// counts per bucket bound, so windowed quantiles derive from the delta
// of two snapshots.
type Hist struct {
	// Bounds are the finite upper bounds; an implicit +Inf bucket
	// follows.
	Bounds []float64 `json:"bounds"`
	// Cum[i] is the cumulative observation count at Bounds[i]; the last
	// entry (len(Bounds)) is the +Inf cumulative count == Count.
	Cum   []float64 `json:"cum"`
	Sum   float64   `json:"sum"`
	Count float64   `json:"count"`
	// Min and Max are the extreme observations since the histogram was
	// made. They do not subtract across samples, so the merged and delta
	// forms leave them zero and the history body leaves them out.
	Min float64 `json:"-"`
	Max float64 `json:"-"`
}

// Sample is one snapshot of every metric family at an instant.
type Sample struct {
	T        time.Time          `json:"t"`
	Counters map[string]float64 `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
	Hists    map[string]Hist    `json:"hists,omitempty"`
}

// StoreConfig tunes the time-series store.
type StoreConfig struct {
	// Step is the snapshot cadence (default 10s).
	Step time.Duration
	// Window is how much history the ring retains (default 15m). The
	// ring capacity is Window/Step samples.
	Window time.Duration
	// Collect produces one Sample; called once per step (and by Snap).
	Collect func() Sample
	// OnSnap, when non-nil, observes every stored sample — the SLO
	// engine hangs its evaluation tick here.
	OnSnap func(Sample)
}

func (c StoreConfig) withDefaults() StoreConfig {
	if c.Step <= 0 {
		c.Step = 10 * time.Second
	}
	if c.Window <= 0 {
		c.Window = 15 * time.Minute
	}
	return c
}

// Store is a fixed-capacity ring buffer of metric samples. Writers (the
// cadence ticker) and readers (history queries, SLO evaluation) share
// one mutex; the capacity is small (Window/Step) and appends copy only
// map headers the collector already allocated, so the lock is held for
// microseconds.
type Store struct {
	cfg StoreConfig

	mu  sync.Mutex
	buf *stats.Ring[Sample] // capacity fixed at construction

	stop chan struct{}
	done chan struct{}
}

// NewStore builds a store; call Start to begin the snapshot cadence, or
// drive it manually with Snap (tests, aqpsh).
func NewStore(cfg StoreConfig) *Store {
	cfg = cfg.withDefaults()
	capacity := int(cfg.Window / cfg.Step)
	if capacity < 2 {
		capacity = 2
	}
	return &Store{cfg: cfg, buf: stats.NewRing[Sample](capacity)}
}

// retain grows the ring to hold samples spanning d, keeping those it
// holds: an SLO window longer than Window is then measured over d, not
// over the span the ring happened to keep.
func (s *Store) retain(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := int((d+s.cfg.Step-1)/s.cfg.Step) + 1; n > s.buf.Cap() {
		grown := stats.NewRing[Sample](n)
		for i := 0; i < s.buf.N(); i++ {
			grown.Push(s.buf.At(i))
		}
		s.buf = grown
	}
}

// Step returns the snapshot cadence.
func (s *Store) Step() time.Duration { return s.cfg.Step }

// Window returns the retention window.
func (s *Store) Window() time.Duration { return s.cfg.Window }

// Start launches the snapshot ticker. Close stops it.
func (s *Store) Start() {
	s.mu.Lock()
	if s.stop != nil {
		s.mu.Unlock()
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	stop, done := s.stop, s.done
	s.mu.Unlock()
	// Baseline sample before the first tick: without it, anything that
	// happens in the first step has no older edge to delta against and
	// is invisible to rates, windowed quantiles, and SLO windows.
	s.Snap()
	go func() {
		defer close(done)
		t := time.NewTicker(s.cfg.Step)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Snap()
			case <-stop:
				return
			}
		}
	}()
}

// Close stops the ticker (idempotent; a never-started store is a no-op).
func (s *Store) Close() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Snap collects one sample immediately, stores it, and returns it.
func (s *Store) Snap() Sample {
	smp := s.cfg.Collect()
	if smp.T.IsZero() {
		smp.T = time.Now()
	}
	s.mu.Lock()
	s.buf.Push(smp)
	s.mu.Unlock()
	if s.cfg.OnSnap != nil {
		s.cfg.OnSnap(smp)
	}
	return smp
}

// Samples returns the stored samples, oldest first.
func (s *Store) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.AppendTo(make([]Sample, 0, s.buf.N()))
}

// History returns the samples inside the trailing window, downsampled to
// at most one sample per step (the newest sample in each step slot wins,
// keeping the most recent cumulative values). step ≤ 0 or below the
// store cadence returns the raw cadence.
func (s *Store) History(window, step time.Duration) []Sample {
	all := s.Samples()
	if len(all) == 0 {
		return nil
	}
	if window <= 0 {
		window = s.cfg.Window
	}
	cutoff := all[len(all)-1].T.Add(-window)
	first := 0
	for first < len(all) && all[first].T.Before(cutoff) {
		first++
	}
	all = all[first:]
	if step <= s.cfg.Step {
		return all
	}
	var out []Sample
	var slot int64 = math.MinInt64
	for _, smp := range all {
		sl := smp.T.UnixNano() / int64(step)
		if sl == slot && len(out) > 0 {
			out[len(out)-1] = smp // newest in slot wins
			continue
		}
		slot = sl
		out = append(out, smp)
	}
	return out
}

// WindowEdges returns the newest sample and the newest sample at least d
// older than it (falling back to the oldest stored sample when the ring
// does not yet span d). ok is false with fewer than two samples.
func (s *Store) WindowEdges(d time.Duration) (old, latest Sample, ok bool) {
	all := s.Samples()
	if len(all) < 2 {
		return Sample{}, Sample{}, false
	}
	latest = all[len(all)-1]
	cutoff := latest.T.Add(-d)
	old = all[0]
	for _, smp := range all[:len(all)-1] {
		if smp.T.After(cutoff) {
			break
		}
		old = smp
	}
	return old, latest, true
}

// FamilySum sums every series of a counter family in one sample: the key
// exactly equal to the family name, or starting with it followed by a
// label block, so families sharing a name prefix stay apart (queries_total
// does not absorb queries_total_errors). family may join several families
// with '+' ("a_total+b_total"), summing them all: SLO totals are often
// the sum of an outcome pair (covered+missed, held+broken).
func FamilySum(counters map[string]float64, family string) float64 {
	var sum float64
	for _, fam := range strings.Split(family, "+") {
		labeled := fam + "{"
		for k, v := range counters {
			if k == fam || strings.HasPrefix(k, labeled) {
				sum += v
			}
		}
	}
	return sum
}

// FamilyHistSum merges every labeled series of a histogram family in one
// sample into a single Hist (bucket-wise sum). Series with differing
// bounds are skipped rather than misaligned. ok is false when no series
// of the family exists.
func FamilyHistSum(hists map[string]Hist, family string) (Hist, bool) {
	var out Hist
	found := false
	labeled := family + "{"
	keys := make([]string, 0, 4)
	for k := range hists {
		if k == family || strings.HasPrefix(k, labeled) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := hists[k]
		if !found {
			out = Hist{
				Bounds: append([]float64(nil), h.Bounds...),
				Cum:    append([]float64(nil), h.Cum...),
				Sum:    h.Sum,
				Count:  h.Count,
			}
			found = true
			continue
		}
		if len(h.Bounds) != len(out.Bounds) {
			continue
		}
		for i := range h.Cum {
			out.Cum[i] += h.Cum[i]
		}
		out.Sum += h.Sum
		out.Count += h.Count
	}
	return out, found
}

// DeltaHist subtracts an older snapshot of a histogram family from a
// newer one, yielding the observations made in between. Bound mismatches
// (a family re-created with different buckets) return the newer
// snapshot as-is — cumulative counters only grow, so that is the
// conservative reading.
func DeltaHist(older, newer Hist) Hist {
	if len(older.Bounds) != len(newer.Bounds) || len(older.Cum) != len(newer.Cum) {
		return newer
	}
	out := Hist{
		Bounds: append([]float64(nil), newer.Bounds...),
		Cum:    make([]float64, len(newer.Cum)),
		Sum:    newer.Sum - older.Sum,
		Count:  newer.Count - older.Count,
	}
	for i := range newer.Cum {
		d := newer.Cum[i] - older.Cum[i]
		if d < 0 {
			d = 0
		}
		out.Cum[i] = d
	}
	if out.Count < 0 {
		out.Count = 0
	}
	return out
}

// Rate is the per-second rate of a cumulative counter family between two
// samples (0 when the interval is empty or non-positive).
func Rate(older, newer Sample, family string) float64 {
	dt := newer.T.Sub(older.T).Seconds()
	if dt <= 0 {
		return 0
	}
	d := FamilySum(newer.Counters, family) - FamilySum(older.Counters, family)
	if d < 0 {
		d = 0
	}
	return d / dt
}
