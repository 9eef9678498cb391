package stats

import (
	"encoding/binary"
	"fmt"
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

// checkWindow fails unless every quantile the observers ask for of the
// window equals the sorted reference over the ring's contents. (An evicted
// -0 may have removed a tied +0, or the reverse; the two compare equal.)
func checkWindow(t *testing.T, r *RollingQuantiles, step string) {
	t.Helper()
	held := r.AppendTo(nil)
	for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.95, 0.999, 1} {
		want, got := sortedRank(held, q), r.Quantile(q)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("%s q=%v: window %v, sorting %v", step, q, got, want)
		}
	}
}

// TestNearestRankIsSortRank: an ordered window returns, after every push,
// the value sorting its ring's contents puts at the rank, over seeded
// streams into windows of every capacity up to 300, drawn with ties, NaN,
// ±Inf and signed zeros, at the quantiles the observers ask for.
func TestNearestRankIsSortRank(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	pool := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, 2, 2, 3}
	for capacity := 1; capacity <= 300; capacity++ {
		r := NewRollingQuantiles(capacity)
		for i := 0; i < capacity+40; i++ {
			switch rng.Intn(4) {
			case 0:
				r.Push(pool[rng.Intn(len(pool))])
			case 1:
				r.Push(float64(rng.Intn(5))) // heavy ties
			default:
				r.Push(rng.NormFloat64() * 100)
			}
			checkWindow(t, r, fmt.Sprintf("cap %d push %d", capacity, i))
		}
	}
	vals := []float64{3, math.NaN(), 1, 2}
	if got := NearestRank(vals, 0.5); got != 1 || !math.IsNaN(vals[0]) {
		t.Fatalf("NearestRank(p50) = %v over %v, want 1 with the slice sorted", got, vals)
	}
}

// FuzzRollingQuantiles: any capacity and push sequence of any float bits
// keeps an ordered window equal to the sorting reference after every push.
func FuzzRollingQuantiles(f *testing.F) {
	f.Add(uint8(3), []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(1), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff})
	f.Fuzz(func(t *testing.T, capacity uint8, bits []byte) {
		r := NewRollingQuantiles(int(capacity))
		for i := 0; i+8 <= len(bits); i += 8 {
			r.Push(math.Float64frombits(binary.LittleEndian.Uint64(bits[i:])))
			checkWindow(t, r, fmt.Sprintf("cap %d push %d", capacity, i/8))
		}
	})
}
