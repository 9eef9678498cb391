package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEquiDepthBasics(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i)
	}
	h, err := BuildEquiDepth(vals, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.Buckets() != 10 || h.Total() != 1000 {
		t.Fatalf("buckets=%d total=%v", h.Buckets(), h.Total())
	}
	// Full range covers everything.
	if got := h.EstimateRangeCount(-1, 1e9); math.Abs(got-1000) > 1 {
		t.Errorf("full range = %v", got)
	}
	// Half range ~500 under uniform data.
	if got := h.EstimateRangeCount(0, 499.5); math.Abs(got-500) > 25 {
		t.Errorf("half range = %v", got)
	}
	// Empty range.
	if got := h.EstimateRangeCount(2000, 3000); got != 0 {
		t.Errorf("empty range = %v", got)
	}
	if got := h.EstimateRangeCount(10, 5); got != 0 {
		t.Errorf("inverted range = %v", got)
	}
}

func TestEquiDepthNormalRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 20000)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	h, err := BuildEquiDepth(vals, 64)
	if err != nil {
		t.Fatal(err)
	}
	// P(|Z|<=1) ≈ 0.683.
	sel := h.EstimateRangeCount(-1, 1) / h.Total()
	if math.Abs(sel-0.683) > 0.03 {
		t.Errorf("selectivity = %v", sel)
	}
}

func TestEquiDepthErrors(t *testing.T) {
	if _, err := BuildEquiDepth(nil, 4); err == nil {
		t.Error("empty input")
	}
	if _, err := BuildEquiDepth([]float64{1}, 0); err == nil {
		t.Error("zero buckets")
	}
	// More buckets than values is clamped.
	h, err := BuildEquiDepth([]float64{1, 2}, 10)
	if err != nil || h.Buckets() > 2 {
		t.Errorf("clamp: %v %v", h, err)
	}
}

// Property: equi-depth range estimates are monotone in the range.
func TestHistogramMonotoneProperty(t *testing.T) {
	vals := make([]float64, 500)
	rng := rand.New(rand.NewSource(2))
	for i := range vals {
		vals[i] = rng.Float64() * 100
	}
	h, err := BuildEquiDepth(vals, 16)
	if err != nil {
		t.Fatal(err)
	}
	f := func(aRaw, bRaw, cRaw uint16) bool {
		a := float64(aRaw % 100)
		b := a + float64(bRaw%100)
		c := b + float64(cRaw%100)
		return h.EstimateRangeCount(a, b) <= h.EstimateRangeCount(a, c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountMinNeverUnderestimates(t *testing.T) {
	cm, err := NewCountMin(0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	truth := make(map[string]uint64)
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, 1.2, 1, 5000)
	for i := 0; i < 20000; i++ {
		k := fmt.Sprintf("k%d", z.Uint64())
		truth[k]++
		cm.Add(k, 1)
	}
	for k, c := range truth {
		if est := cm.Estimate(k); est < c {
			t.Fatalf("CMS underestimated %s: %d < %d", k, est, c)
		}
	}
}

func TestCountMinErrorBound(t *testing.T) {
	cm, err := NewCountMin(0.005, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	truth := make(map[string]uint64)
	rng := rand.New(rand.NewSource(7))
	z := rand.NewZipf(rng, 1.3, 1, 10000)
	for i := 0; i < 50000; i++ {
		k := fmt.Sprintf("k%d", z.Uint64())
		truth[k]++
		cm.Add(k, 1)
	}
	bound := cm.ErrorBound()
	violations := 0
	for k, c := range truth {
		if float64(cm.Estimate(k)-c) > bound {
			violations++
		}
	}
	if frac := float64(violations) / float64(len(truth)); frac > 0.05 {
		t.Errorf("CMS error bound violated for %v of keys", frac)
	}
}

func TestCountMinParamValidation(t *testing.T) {
	for _, bad := range [][2]float64{{0, 0.1}, {1, 0.1}, {0.1, 0}, {0.1, 1}} {
		if _, err := NewCountMin(bad[0], bad[1]); err == nil {
			t.Errorf("NewCountMin(%v) should fail", bad)
		}
	}
}

func TestHLLAccuracy(t *testing.T) {
	h, err := NewHyperLogLog(12)
	if err != nil {
		t.Fatal(err)
	}
	n := 100000
	for i := 0; i < n; i++ {
		h.Add(fmt.Sprintf("user-%d", i))
	}
	est := h.Estimate()
	rel := math.Abs(est-float64(n)) / float64(n)
	if rel > 3*h.StdError() {
		t.Errorf("HLL estimate %v for %d distinct (rel err %v, se %v)", est, n, rel, h.StdError())
	}
}

func TestHLLSmallRangeLinearCounting(t *testing.T) {
	h, _ := NewHyperLogLog(12)
	for i := 0; i < 100; i++ {
		h.Add(fmt.Sprintf("k%d", i))
	}
	est := h.Estimate()
	if math.Abs(est-100) > 10 {
		t.Errorf("small-range estimate = %v", est)
	}
}

func TestHLLDuplicatesDontInflate(t *testing.T) {
	h, _ := NewHyperLogLog(10)
	for i := 0; i < 10000; i++ {
		h.Add("same-key")
	}
	if est := h.Estimate(); est > 3 {
		t.Errorf("duplicate-only estimate = %v", est)
	}
}

func TestHLLParamValidation(t *testing.T) {
	if _, err := NewHyperLogLog(3); err == nil {
		t.Error("precision 3 invalid")
	}
}
