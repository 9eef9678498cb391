package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestWilsonIntervalBasics(t *testing.T) {
	iv := WilsonInterval(95, 100, 0.95)
	if !(iv.Lo < 0.95 && 0.95 < iv.Hi) {
		t.Fatalf("Wilson(95/100) = [%f, %f], want to contain 0.95", iv.Lo, iv.Hi)
	}
	// Known reference: Wilson 95% for 95/100 is roughly [0.887, 0.979].
	if math.Abs(iv.Lo-0.8872) > 0.005 || math.Abs(iv.Hi-0.9785) > 0.005 {
		t.Fatalf("Wilson(95/100) = [%f, %f], want ~[0.887, 0.979]", iv.Lo, iv.Hi)
	}
	// Extremes stay inside [0, 1] and are non-degenerate.
	if iv = WilsonInterval(0, 10, 0.95); iv.Lo > 1e-12 || iv.Hi <= 0 || iv.Hi >= 1 {
		t.Fatalf("Wilson(0/10) = [%f, %f]", iv.Lo, iv.Hi)
	}
	if iv = WilsonInterval(10, 10, 0.95); iv.Hi < 1-1e-12 || iv.Lo <= 0 {
		t.Fatalf("Wilson(10/10) = [%f, %f]", iv.Lo, iv.Hi)
	}
	if iv = WilsonInterval(0, 0, 0.95); iv.Lo != 0 || iv.Hi != 1 {
		t.Fatalf("Wilson(0/0) = [%f, %f], want [0, 1]", iv.Lo, iv.Hi)
	}
}

// The Wilson interval's own coverage: across seeded binomial draws the
// interval should contain the true proportion about as often as promised.
func TestWilsonIntervalCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const trials, n, p = 400, 60, 0.93
	covered := 0
	for i := 0; i < trials; i++ {
		succ := 0
		for j := 0; j < n; j++ {
			if rng.Float64() < p {
				succ++
			}
		}
		if iv := WilsonInterval(succ, n, 0.95); iv.Lo <= p && p <= iv.Hi {
			covered++
		}
	}
	if frac := float64(covered) / trials; frac < 0.89 {
		t.Fatalf("Wilson coverage %f, want >= 0.89", frac)
	}
}

func TestRollingCoverageWindow(t *testing.T) {
	r := NewRollingCoverage(4)
	for _, b := range []bool{true, true, false, true} {
		r.Push(b)
	}
	if r.N() != 4 || r.Hits() != 3 {
		t.Fatalf("N=%d hits=%d, want 4/3", r.N(), r.Hits())
	}
	// Two more pushes evict the two oldest (true, true).
	r.Push(false)
	r.Push(false)
	if r.N() != 4 || r.Hits() != 1 {
		t.Fatalf("after eviction N=%d hits=%d, want 4/1", r.N(), r.Hits())
	}
	if got := r.Rate(); got != 0.25 {
		t.Fatalf("rate %f, want 0.25", got)
	}
	iv := r.Wilson(0.95)
	if !(iv.Lo <= 0.25 && 0.25 <= iv.Hi) {
		t.Fatalf("Wilson [%f, %f] excludes the point estimate", iv.Lo, iv.Hi)
	}
}

func TestRollingQuantiles(t *testing.T) {
	r := NewRollingQuantiles(8)
	for _, v := range []float64{5, 1, 4, 2, 3} {
		r.Push(v)
	}
	if got := r.Quantile(0.5); got != 3 {
		t.Fatalf("median %f, want 3", got)
	}
	if got := r.Max(); got != 5 {
		t.Fatalf("max %f, want 5", got)
	}
	// Fill past capacity: {5,1,4} evicted, window = {2,3,10,11,12,13,14,15}.
	for _, v := range []float64{10, 11, 12, 13, 14, 15} {
		r.Push(v)
	}
	if got := r.Quantile(0); got != 2 {
		t.Fatalf("min %f, want 2 after eviction", got)
	}
	if got := r.Quantile(1); got != 15 {
		t.Fatalf("p100 %f, want 15", got)
	}
	if got := r.N(); got != 8 {
		t.Fatalf("N %d, want 8", got)
	}
}

// TestRingWraps checks every observable of a Ring against the tail of a
// plain slice while pushes run past capacity twice.
func TestRingWraps(t *testing.T) {
	for _, capacity := range []int{1, 3, 8} {
		r := NewRing[int](capacity)
		var all []int
		for v := 0; v <= 2*capacity+1; v++ {
			old, evicted := r.Push(v)
			all = append(all, v)
			want := all[max(0, len(all)-capacity):]
			if wantEvicted := len(all) > capacity; evicted != wantEvicted {
				t.Fatalf("cap %d push %d: evicted %v, want %v", capacity, v, evicted, wantEvicted)
			} else if evicted && old != all[len(all)-capacity-1] {
				t.Fatalf("cap %d push %d: evicted value %d, want %d", capacity, v, old, all[len(all)-capacity-1])
			}
			if r.N() != len(want) || r.Full() != (len(want) == capacity) {
				t.Fatalf("cap %d push %d: N=%d Full=%v, want %d %v", capacity, v, r.N(), r.Full(), len(want), len(want) == capacity)
			}
			for i, w := range want {
				if got := r.At(i); got != w {
					t.Fatalf("cap %d push %d: At(%d) = %d, want %d", capacity, v, i, got, w)
				}
			}
			got := r.AppendTo([]int{-1})
			if !slices.Equal(got, append([]int{-1}, want...)) {
				t.Fatalf("cap %d push %d: AppendTo = %v, want -1 then %v", capacity, v, got, want)
			}
		}
	}
	if got := NewRing[int](4).AppendTo(nil); got != nil {
		t.Fatalf("empty AppendTo(nil) = %v, want nil", got)
	}
}

// sortedRank is the reference NearestRank: sort a copy, then index.
func sortedRank(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	sort.Float64s(s)
	switch {
	case q <= 0:
		return s[0]
	case q >= 1:
		return s[len(s)-1]
	}
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

// TestNearestRankIsSortRank: selection returns the value sorting puts at
// the rank, over seeded slices of every length up to 300 drawn with ties,
// NaN, ±Inf and signed zeros, at the quantiles the observers ask for.
// (A -0 and a +0 tied at the rank may swap, as sort.Float64s may swap
// them; the two compare equal.)
func TestNearestRankIsSortRank(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	pool := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, 2, 2, 3}
	for trial := 0; trial < 2000; trial++ {
		n := trial % 301
		vals := make([]float64, n)
		for i := range vals {
			switch rng.Intn(4) {
			case 0:
				vals[i] = pool[rng.Intn(len(pool))]
			case 1:
				vals[i] = float64(rng.Intn(5)) // heavy ties
			default:
				vals[i] = rng.NormFloat64() * 100
			}
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.95, 1, 0.01, 0.999} {
			want := sortedRank(vals, q)
			got := NearestRank(slices.Clone(vals), q)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("n=%d q=%v: selection %v, sorting %v", n, q, got, want)
			}
		}
	}
}
