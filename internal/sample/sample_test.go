package sample

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

func TestSpecValidate(t *testing.T) {
	good := []Spec{
		{Kind: KindNone},
		{Kind: KindUniformRow, Rate: 0.5},
		{Kind: KindBlock, Rate: 1},
		{Kind: KindUniverse, Rate: 0.1, KeyColumns: []string{"k"}},
		{Kind: KindUniverse, Rate: 0.1, KeyColumns: []string{"k"}, NoWeight: true},
		{Kind: KindDistinct, Rate: 0.1, KeyColumns: []string{"g"}, KeepThreshold: 5},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%v): %v", s, err)
		}
	}
	bad := []Spec{
		{Kind: KindUniformRow, Rate: 0},
		{Kind: KindUniformRow, Rate: 1.5},
		{Kind: KindUniformRow, Rate: math.NaN()},
		{Kind: KindBlock, Rate: math.NaN()},
		{Kind: KindBiLevel, Rate: 0.5, RowRate: math.NaN()},
		{Kind: KindBiLevel + 1, Rate: 0.5},
		{Kind: KindUniverse, Rate: 0.1},
		{Kind: KindDistinct, Rate: 0.1},
		{Kind: KindDistinct, Rate: 0.1, KeyColumns: []string{"g"}, NoWeight: true},
		{Kind: KindDistinct, Rate: 0.1, KeyColumns: []string{"g"}, KeepThreshold: 0},
		{Kind: KindUniformRow, Rate: 0.1, NoWeight: true},
		{Kind: KindBlock, Rate: 0.1, NoWeight: true},
		{Kind: KindBiLevel, Rate: 0.1, RowRate: 0.5, NoWeight: true},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%v) should fail", s)
		}
	}
}

func TestUniformRateEmpirical(t *testing.T) {
	for _, p := range []float64{0.01, 0.1, 0.5} {
		u := NewUniform(p, 42)
		n := 200000
		kept := 0
		for i := 0; i < n; i++ {
			if d := u.Decide(i); d.Keep {
				kept++
				if d.Weight != 1/p {
					t.Fatalf("weight = %v, want %v", d.Weight, 1/p)
				}
			}
		}
		got := float64(kept) / float64(n)
		if math.Abs(got-p) > 4*math.Sqrt(p*(1-p)/float64(n)) {
			t.Errorf("p=%v: empirical rate %v", p, got)
		}
	}
}

func TestUniformDeterministic(t *testing.T) {
	a := NewUniform(0.3, 7)
	b := NewUniform(0.3, 7)
	for i := 0; i < 1000; i++ {
		if a.Decide(i).Keep != b.Decide(i).Keep {
			t.Fatal("same seed must give same decisions")
		}
	}
	c := NewUniform(0.3, 8)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Decide(i).Keep == c.Decide(i).Keep {
			same++
		}
	}
	if same == 1000 {
		t.Error("different seeds should differ")
	}
}

func TestBlockSampler(t *testing.T) {
	b := NewBlock(0.5, 1)
	// A block spec's stage is the same sampler, and adds no row weight.
	st, err := Spec{Kind: KindBlock, Rate: 0.5, Seed: 1}.Stages()
	if err != nil || st.Uniform != nil || st.Distinct != nil || st.Universe != nil || st.Weight != 1 {
		t.Fatalf("block stages %+v, %v", st, err)
	}
	for blk := 0; blk < 50; blk++ {
		if st.Block.DecideBlock(blk) != b.DecideBlock(blk) {
			t.Fatalf("block %d: the spec's stage disagrees", blk)
		}
	}
	// Empirical block rate.
	kept := 0
	n := 10000
	for blk := 0; blk < n; blk++ {
		if b.DecideBlock(blk).Keep {
			kept++
		}
	}
	got := float64(kept) / float64(n)
	if math.Abs(got-0.5) > 0.03 {
		t.Errorf("block rate = %v", got)
	}
}

func TestUniverseAlignment(t *testing.T) {
	// The same key must receive the same decision from two independent
	// sampler instances with the same salt — the property that makes
	// join sampling work.
	a := NewUniverse(0.3, 123)
	b := NewUniverse(0.3, 123)
	for i := 0; i < 5000; i++ {
		key := storage.Int64(int64(i)).GroupKey()
		if a.Decide(key).Keep != b.Decide(key).Keep {
			t.Fatal("universe samplers with same salt must agree on keys")
		}
	}
	// Different salt decorrelates.
	c := NewUniverse(0.3, 456)
	agree := 0
	for i := 0; i < 5000; i++ {
		key := storage.Int64(int64(i)).GroupKey()
		if a.Decide(key).Keep == c.Decide(key).Keep {
			agree++
		}
	}
	if agree == 5000 {
		t.Error("different salts should decorrelate")
	}
}

func TestUniverseRate(t *testing.T) {
	u := NewUniverse(0.2, 9)
	kept := 0
	n := 100000
	for i := 0; i < n; i++ {
		if u.Decide(storage.Int64(int64(i)).GroupKey()).Keep {
			kept++
		}
	}
	got := float64(kept) / float64(n)
	if math.Abs(got-0.2) > 0.01 {
		t.Errorf("universe rate = %v", got)
	}
}

func TestDistinctKeepsRareStrata(t *testing.T) {
	d := NewDistinct(0.01, 3, 5)
	// A rare stratum with 3 rows: all kept with weight 1.
	for i := 0; i < 3; i++ {
		dec := d.Decide(i, "rare")
		if !dec.Keep || dec.Weight != 1 {
			t.Fatalf("rare row %d: %+v", i, dec)
		}
	}
	// A huge stratum: first 3 kept, the rest sampled at ~1%.
	kept := 0
	n := 100000
	for i := 0; i < n; i++ {
		if dec := d.Decide(1000+i, "big"); dec.Keep {
			kept++
			if i >= 3 && dec.Weight != 100 {
				t.Fatalf("tail weight = %v", dec.Weight)
			}
		}
	}
	rate := float64(kept-3) / float64(n-3)
	if math.Abs(rate-0.01) > 0.002 {
		t.Errorf("distinct tail rate = %v", rate)
	}
	if len(d.seen) != 2 {
		t.Errorf("strata seen = %d", len(d.seen))
	}
}

// Property: HT estimation over the uniform sampler is unbiased — the mean
// of the weighted sum across seeds approaches the true sum.
func TestUniformHTUnbiasedProperty(t *testing.T) {
	xs := make([]float64, 5000)
	var trueSum float64
	for i := range xs {
		xs[i] = float64(i%97) + 1
		trueSum += xs[i]
	}
	var acc, acc2 float64
	trials := 200
	for seed := 0; seed < trials; seed++ {
		u := NewUniform(0.1, int64(seed))
		var est float64
		for i, x := range xs {
			if d := u.Decide(i); d.Keep {
				est += x * d.Weight
			}
		}
		acc += est
		acc2 += est * est
	}
	mean := acc / float64(trials)
	sd := math.Sqrt(acc2/float64(trials) - mean*mean)
	se := sd / math.Sqrt(float64(trials))
	if math.Abs(mean-trueSum) > 4*se+1e-9 {
		t.Errorf("uniform HT biased: mean %v, true %v, se %v", mean, trueSum, se)
	}
}

// Property: sampling commutes with filtering for the uniform sampler —
// the set of (row, keep) decisions is independent of any filter, so
// filter∘sample = sample∘filter exactly.
func TestSampleFilterCommutes(t *testing.T) {
	f := func(seed int64, keepMod uint8) bool {
		mod := int(keepMod%7) + 2
		u := NewUniform(0.3, seed)
		var a, b []int
		// sample then filter
		for i := 0; i < 2000; i++ {
			if u.Decide(i).Keep && i%mod == 0 {
				a = append(a, i)
			}
		}
		// filter then sample
		for i := 0; i < 2000; i++ {
			if i%mod == 0 && u.Decide(i).Keep {
				b = append(b, i)
			}
		}
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// biLevel returns the stages of a bi-level spec and its combined decision
// for a row, the block stage's and then the row stage's.
func biLevel(t *testing.T, blockRate, rowRate float64, blockSize int, seed int64) (Stages, func(int) RowDecision) {
	t.Helper()
	st, err := Spec{Kind: KindBiLevel, Rate: blockRate, RowRate: rowRate, Seed: seed}.Stages()
	if err != nil || st.Block == nil || st.Uniform == nil {
		t.Fatalf("bilevel stages %+v, %v", st, err)
	}
	return st, func(i int) RowDecision {
		bd := st.Block.DecideBlock(i / blockSize)
		if !bd.Keep || !st.Uniform.Decide(i).Keep {
			return RowDecision{}
		}
		return RowDecision{Keep: true, Weight: bd.Weight * st.Weight}
	}
}

func TestBiLevelSampler(t *testing.T) {
	st, decide := biLevel(t, 0.2, 0.1, 100, 3)
	if rate := st.Block.p * st.Uniform.p; math.Abs(rate-0.02) > 1e-12 {
		t.Fatalf("overall rate = %v", rate)
	}
	// Rows of skipped blocks never pass; rows of kept blocks pass at the
	// row rate with the combined weight.
	kept := 0
	n := 200000
	for i := 0; i < n; i++ {
		d := decide(i)
		if d.Keep {
			kept++
			if math.Abs(d.Weight-50) > 1e-9 { // 1/(0.2*0.1)
				t.Fatalf("weight = %v", d.Weight)
			}
			if !st.Block.DecideBlock(i / 100).Keep {
				t.Fatal("row kept from a skipped block")
			}
		}
	}
	got := float64(kept) / float64(n)
	if math.Abs(got-0.02) > 0.005 {
		t.Errorf("empirical bilevel rate = %v", got)
	}
}

func TestBiLevelHTUnbiased(t *testing.T) {
	xs := make([]float64, 20000)
	var truth float64
	for i := range xs {
		xs[i] = float64(i%113) + 1
		truth += xs[i]
	}
	var acc float64
	trials := 150
	for seed := 0; seed < trials; seed++ {
		_, decide := biLevel(t, 0.3, 0.2, 64, int64(seed))
		var est float64
		for i, x := range xs {
			if d := decide(i); d.Keep {
				est += d.Weight * x
			}
		}
		acc += est
	}
	mean := acc / float64(trials)
	if math.Abs(mean-truth)/truth > 0.03 {
		t.Errorf("bilevel HT mean %v vs truth %v", mean, truth)
	}
}

func TestBiLevelSpec(t *testing.T) {
	good := Spec{Kind: KindBiLevel, Rate: 0.2, RowRate: 0.1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if st, err := good.Stages(); err != nil || st.Block == nil || st.Uniform == nil {
		t.Fatalf("Stages: %+v, %v", st, err)
	}
	bad := Spec{Kind: KindBiLevel, Rate: 0.2}
	if err := bad.Validate(); err == nil {
		t.Error("missing row rate must fail validation")
	}
	if !containsStr(good.String(), "rowRate") {
		t.Errorf("String = %q", good.String())
	}
}

func containsStr(s, sub string) bool { return strings.Contains(s, sub) }

func TestReservoir(t *testing.T) {
	r := NewReservoir[int](10, 3)
	for i := 0; i < 1000; i++ {
		r.Add(i)
	}
	if len(r.Items()) != 10 {
		t.Fatalf("items = %d", len(r.Items()))
	}
	// Under capacity: everything kept.
	r2 := NewReservoir[int](10, 3)
	r2.Add(1)
	r2.Add(2)
	if len(r2.Items()) != 2 {
		t.Fatal("under-capacity reservoir broken")
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Each of 100 items should land in a k=10 reservoir with prob 1/10.
	counts := make([]int, 100)
	trials := 3000
	for s := 0; s < trials; s++ {
		r := NewReservoir[int](10, int64(s))
		for i := 0; i < 100; i++ {
			r.Add(i)
		}
		for _, it := range r.Items() {
			counts[it]++
		}
	}
	for i, c := range counts {
		got := float64(c) / float64(trials)
		if math.Abs(got-0.1) > 0.04 {
			t.Errorf("item %d inclusion rate %v, want 0.1", i, got)
		}
	}
}

func makeTable(t *testing.T, groups []int) *storage.Table {
	t.Helper()
	tbl := storage.NewTable("src", storage.Schema{
		{Name: "g", Type: storage.TypeInt64},
		{Name: "v", Type: storage.TypeFloat64},
	})
	row := 0
	for g, n := range groups {
		for i := 0; i < n; i++ {
			if err := tbl.AppendRow(storage.Int64(int64(g)), storage.Float64(float64(row))); err != nil {
				t.Fatal(err)
			}
			row++
		}
	}
	return tbl
}

func TestBuildStratified(t *testing.T) {
	// Group sizes: 2, 50, 500.
	tbl := makeTable(t, []int{2, 50, 500})
	res, err := BuildStratified(tbl, StratifiedConfig{
		KeyColumns: []string{"g"}, CapPerStratum: 10, Seed: 1}, "s")
	if err != nil {
		t.Fatal(err)
	}
	if res.Strata != 3 {
		t.Fatalf("strata = %d", res.Strata)
	}
	if res.SampleRows != 2+10+10 {
		t.Fatalf("sample rows = %d", res.SampleRows)
	}
	// Weight column present and correct: stratum g=0 has weight 1,
	// g=1 weight 5, g=2 weight 50.
	wIdx := res.Table.Schema().ColumnIndex(WeightColumn)
	gIdx := res.Table.Schema().ColumnIndex("g")
	if wIdx < 0 || gIdx < 0 {
		t.Fatal("columns missing")
	}
	wantW := map[int64]float64{0: 1, 1: 5, 2: 50}
	for i := 0; i < res.Table.NumRows(); i++ {
		g := res.Table.Column(gIdx).Value(i).I
		w := res.Table.Column(wIdx).Value(i).F
		if w != wantW[g] {
			t.Fatalf("row %d: g=%d w=%v want %v", i, g, w, wantW[g])
		}
	}
	// HT count over the sample equals the true row count exactly (each
	// stratum contributes size/cap * cap).
	var htCount float64
	for i := 0; i < res.Table.NumRows(); i++ {
		htCount += res.Table.Column(wIdx).Value(i).F
	}
	if htCount != 552 {
		t.Fatalf("HT count = %v, want 552", htCount)
	}
	if res.Fraction() <= 0 || res.Fraction() > 1 {
		t.Fatalf("fraction = %v", res.Fraction())
	}
	if res.BuildVersion != tbl.Version() {
		t.Error("build version mismatch")
	}
}

func TestBuildStratifiedErrors(t *testing.T) {
	tbl := makeTable(t, []int{5})
	if _, err := BuildStratified(tbl, StratifiedConfig{KeyColumns: []string{"nope"}, CapPerStratum: 5}, "s"); err == nil {
		t.Error("expected unknown column error")
	}
	if _, err := BuildStratified(tbl, StratifiedConfig{KeyColumns: []string{"g"}}, "s"); err == nil {
		t.Error("expected cap error")
	}
}

func TestBuildUniformTable(t *testing.T) {
	tbl := makeTable(t, []int{1000})
	res, err := BuildUniformTable(tbl, 0.2, 9, "u")
	if err != nil {
		t.Fatal(err)
	}
	frac := res.Fraction()
	if math.Abs(frac-0.2) > 0.06 {
		t.Fatalf("fraction = %v", frac)
	}
	wIdx := res.Table.Schema().ColumnIndex(WeightColumn)
	for i := 0; i < res.Table.NumRows(); i++ {
		if res.Table.Column(wIdx).Value(i).F != 5 {
			t.Fatal("uniform weight must be 1/p")
		}
	}
	if _, err := BuildUniformTable(tbl, 0, 1, "u2"); err == nil {
		t.Error("expected rate error")
	}
}

func TestKeyOf(t *testing.T) {
	one := KeyOf([]storage.Value{storage.Int64(5)})
	if one != storage.Int64(5).GroupKey() {
		t.Error("single key must match GroupKey")
	}
	multi := KeyOf([]storage.Value{storage.Int64(1), storage.Str("a")})
	multi2 := KeyOf([]storage.Value{storage.Int64(1), storage.Str("a")})
	if multi != multi2 {
		t.Error("KeyOf must be deterministic")
	}
	diff := KeyOf([]storage.Value{storage.Int64(1), storage.Str("b")})
	if multi == diff {
		t.Error("different tuples must produce different keys")
	}
}

// TestKeyerMatchesKeyOf checks every Keyer path — the single dictionary
// column, the cached dictionary tuple, the uncached high-cardinality
// tuple, and tuples with non-dictionary columns — against KeyOf over the
// boxed row, including NULLs and the empty string.
func TestKeyerMatchesKeyOf(t *testing.T) {
	tbl := storage.NewTable("t", storage.Schema{
		{Name: "a", Type: storage.TypeString},
		{Name: "b", Type: storage.TypeString},
		{Name: "hi", Type: storage.TypeString},
		{Name: "i", Type: storage.TypeInt64},
		{Name: "f", Type: storage.TypeFloat64},
	})
	const rows = 6000 // hi × hi exceeds maxCachedKeys
	for r := 0; r < rows; r++ {
		a, b, i := storage.Str([]string{"x", "", "y"}[r%3]), storage.Str([]string{"p", "q"}[r%2]), storage.Int64(int64(r%7))
		if r%13 == 0 {
			a = storage.NullValue(storage.TypeString)
		}
		if r%17 == 0 {
			i = storage.NullValue(storage.TypeInt64)
		}
		if err := tbl.AppendRow(a, b, storage.Str(fmt.Sprint("h", r)), i, storage.Float64(float64(r%4))); err != nil {
			t.Fatal(err)
		}
	}
	for _, cols := range [][]int{{0}, {0, 1}, {1, 0}, {2}, {2, 2}, {3}, {0, 3}, {4, 1}, {0, 1, 2}, {}} {
		keyer := NewKeyer(tbl, cols)
		vals := make([]storage.Value, len(cols))
		for pass := 0; pass < 2; pass++ { // second pass reads the filled cache
			for r := 0; r < rows; r++ {
				for j, c := range cols {
					vals[j] = tbl.Column(c).Value(r)
				}
				if got, want := keyer.Key(r), KeyOf(vals); got != want {
					t.Fatalf("cols %v row %d: Key = %q, KeyOf = %q", cols, r, got, want)
				}
			}
		}
	}
}

// TestStagesFromSpec: each kind builds its one stage at the spec's rate,
// and a kept row weighs 1/rate on top of its block's weight, 1 under
// NoWeight; an unsampled spec builds none, an invalid one is refused.
func TestStagesFromSpec(t *testing.T) {
	cases := []struct {
		spec   Spec
		rate   func(Stages) float64
		weight float64
	}{
		{Spec{Kind: KindUniformRow, Rate: 0.1}, func(st Stages) float64 { return st.Uniform.p }, 10},
		{Spec{Kind: KindBlock, Rate: 0.1}, func(st Stages) float64 { return st.Block.p }, 1},
		{Spec{Kind: KindUniverse, Rate: 0.1, KeyColumns: []string{"k"}}, func(st Stages) float64 { return st.Universe.p }, 10},
		{Spec{Kind: KindUniverse, Rate: 0.1, KeyColumns: []string{"k"}, NoWeight: true}, func(st Stages) float64 { return st.Universe.p }, 1},
		{Spec{Kind: KindDistinct, Rate: 0.1, KeyColumns: []string{"g"}, KeepThreshold: 2}, func(st Stages) float64 { return st.Distinct.p }, 10},
		{Spec{Kind: KindBiLevel, Rate: 0.5, RowRate: 0.1}, func(st Stages) float64 { return st.Uniform.p }, 10},
	}
	for _, c := range cases {
		st, err := c.spec.Stages()
		if err != nil {
			t.Errorf("Stages(%v): %v", c.spec, err)
			continue
		}
		if r := c.rate(st); r != 0.1 || st.Weight != c.weight {
			t.Errorf("Stages(%v): rate %v, weight %v", c.spec, r, st.Weight)
		}
	}
	if st, err := (Spec{Kind: KindNone}).Stages(); err != nil || st != (Stages{Weight: 1}) {
		t.Errorf("KindNone should build no stage: %+v, %v", st, err)
	}
	if _, err := (Spec{Kind: KindUniformRow, Rate: 2}).Stages(); err == nil {
		t.Error("an invalid spec must be refused")
	}
}

func TestSpecString(t *testing.T) {
	s := Spec{Kind: KindDistinct, Rate: 0.05, KeyColumns: []string{"a", "b"}, KeepThreshold: 10}
	str := s.String()
	if str == "" || str == "none" {
		t.Errorf("String = %q", str)
	}
	if (Spec{}).String() != "none" {
		t.Error("zero spec renders none")
	}
}

// sameAsDecide fails unless bit r of kept is Decide's verdict on row r, for
// every row below n.
func sameAsDecide(t *testing.T, u *Uniform, kept []uint64, n int) {
	t.Helper()
	if len(kept) < (n+63)/64 {
		t.Fatalf("p=%v n=%d: %d words", u.p, n, len(kept))
	}
	for r := range n {
		if got := kept[r/64]>>(r%64)&1 == 1; got != u.Decide(r).Keep {
			t.Fatalf("p=%v seed=%d row %d of %d: bit %v, Decide disagrees", u.p, u.seed, r, n, got)
		}
	}
}

// sameAsTailCoin fails unless bit r of kept is the tail coin Decide flips
// for row r of a stratum past d's pass-through, for every row below n.
func sameAsTailCoin(t *testing.T, d *Distinct, kept []uint64, n int) {
	t.Helper()
	if len(kept) < (n+63)/64 {
		t.Fatalf("p=%v n=%d: %d words", d.p, n, len(kept))
	}
	past := NewDistinct(d.p, 0, int64(d.seed)) // no pass-through: Decide flips the coin for every row
	for r := range n {
		if got := kept[r/64]>>(r%64)&1 == 1; got != past.Decide(r, "").Keep {
			t.Fatalf("p=%v seed=%d row %d of %d: bit %v, Decide disagrees", d.p, d.seed, r, n, got)
		}
	}
}

// kept is Kept on a live context, failing the test on an error.
func kept(t *testing.T, c interface {
	Kept(context.Context, int, int) ([]uint64, error)
}, n, workers int) []uint64 {
	t.Helper()
	b, err := c.Kept(context.Background(), n, workers)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestUniformKeptIsDecide: the memoised bitmap holds exactly Decide's
// verdicts — at tiny, small, even and full rates, over row counts that end
// mid-word, filled by one worker or split across several, when it was grown
// from a shorter one (which must not change under its earlier caller), and
// when many callers ask for it first at once.
func TestUniformKeptIsDecide(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, p := range []float64{1e-4, 0.01, 0.5, 1} {
		for i := range 3 {
			u := NewUniform(p, rng.Int63())
			short, n := 64*rng.Intn(40)+1+rng.Intn(63), 64*(50+rng.Intn(100))+1+rng.Intn(63)
			if i == 2 {
				n += 3 * 64 * fillGrainWords // large enough for every worker to take a range
			}
			first := kept(t, u, short, 1)
			before := append([]uint64(nil), first...)
			sameAsDecide(t, u, first, short)
			sameAsDecide(t, u, kept(t, u, n, 1+i), n)
			if !reflect.DeepEqual(first, before) {
				t.Fatalf("p=%v: growing the bitmap changed the one handed out before", p)
			}
			sameAsDecide(t, u, kept(t, u, short, 1), short)
		}
	}
	// Concurrent first callers, some asking for more rows than others.
	u := NewUniform(0.05, rng.Int63())
	const callers = 8
	got := make([][]uint64, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = kept(t, u, 20_001+7*(i%2)+64*fillGrainWords*(i%3), 2)
		}()
	}
	wg.Wait()
	for i := range callers {
		sameAsDecide(t, u, got[i], 20_001)
	}
	if kept(t, u, 0, 1) != nil {
		t.Error("no rows, no bitmap")
	}
	if st, _ := biLevel(t, 0.5, 0.3, 100, 7); st.Uniform.p != 0.3 {
		t.Error("bi-level row stage is not its row sampler")
	}
}

// TestDistinctKeptIsTheTailCoin: the distinct sampler's bitmap holds
// exactly the tail coin Decide flips, at every rate from whole to almost
// nothing, over row counts that end mid-word, filled by one worker or
// split across several, and grown from a shorter one.
func TestDistinctKeptIsTheTailCoin(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, p := range []float64{1, 0.5, 1.0 / 3, 0.01, 1e-9} {
		for i := range 3 {
			d := NewDistinct(p, 30, rng.Int63())
			short, n := 64*rng.Intn(40)+1+rng.Intn(63), 64*(50+rng.Intn(100))+1+rng.Intn(63)
			if i == 2 {
				n += 3 * 64 * fillGrainWords
			}
			sameAsTailCoin(t, d, kept(t, d, short, 1), short)
			sameAsTailCoin(t, d, kept(t, d, n, 1+i), n)
		}
	}
}

// TestKeptCoinsKeptApart: a uniform and a distinct sampler at one (seed,
// rate) flip different coins, so each gets a bitmap of its own, whichever
// asks first.
func TestKeptCoinsKeptApart(t *testing.T) {
	const n = 5000
	for i, seed := range []int64{4401, 4402} {
		u, d := NewUniform(0.3, seed), NewDistinct(0.3, 30, seed)
		before := KeptMemoStats()
		var ub, db []uint64
		if i == 0 {
			ub, db = kept(t, u, n, 1), kept(t, d, n, 1)
		} else {
			db, ub = kept(t, d, n, 1), kept(t, u, n, 1)
		}
		sameAsDecide(t, u, ub, n)
		sameAsTailCoin(t, d, db, n)
		if reflect.DeepEqual(ub, db) {
			t.Fatalf("seed %d: both samplers got one bitmap", seed)
		}
		if got := KeptMemoStats().Misses - before.Misses; got != 2 {
			t.Errorf("seed %d: %d misses, want one per coin", seed, got)
		}
	}
}

// TestKeptCutIsTheCoin: the fill's integer test keeps exactly the hashes
// hashToUnit puts below p, at the boundary itself.
func TestKeptCutIsTheCoin(t *testing.T) {
	for _, p := range []float64{1e-300, 1e-4, 0.1, 1.0 / 3, 0.5, math.Nextafter(1, 0), 1, 2, 0, -1, math.NaN()} {
		cut := keptCut(p)
		if cut > 1<<53 {
			t.Fatalf("p=%v: cut %d past 2^53", p, cut)
		}
		if cut > 0 && !(hashToUnit((cut-1)<<11) < p) {
			t.Errorf("p=%v: the hash just below the cut is dropped", p)
		}
		if cut < 1<<53 && hashToUnit(cut<<11) < p {
			t.Errorf("p=%v: the hash at the cut is kept", p)
		}
	}
}

// TestKeptFillStopsOnCancel: a fill whose context has ended returns its
// error and remembers nothing; a waiter for another caller's fill gives up
// when its own context ends; the next caller fills the pair whole.
func TestKeptFillStopsOnCancel(t *testing.T) {
	u := NewUniform(0.25, 2626)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const n = 4 * 64 * fillGrainWords
	words := make([]uint64, n/64)
	if err := fill(ctx, NewUniform(1, 1), words, 0, 2); err == nil || slices.ContainsFunc(words, func(w uint64) bool { return w != 0 }) {
		t.Fatalf("a cancelled fill decided rows anyway (err %v)", err)
	}
	if b, err := u.Kept(ctx, n, 2); err == nil || b != nil {
		t.Fatalf("cancelled fill: %d words, err %v", len(b), err)
	}
	e := keptMemo.entry(u.keptKey())
	if e.words.Load() != nil {
		t.Fatal("a cancelled fill was remembered")
	}
	e.fill <- struct{}{} // another caller is filling
	if _, err := u.Kept(ctx, n, 2); err == nil {
		t.Fatal("a waiter outlived its context")
	}
	<-e.fill
	sameAsDecide(t, u, kept(t, u, n, 2), n)

	// The distinct sampler's fill stops the same way.
	d := NewDistinct(0.25, 30, 2626)
	if b, err := d.Kept(ctx, n, 2); err == nil || b != nil {
		t.Fatalf("cancelled distinct fill: %d words, err %v", len(b), err)
	}
	if keptMemo.entry(d.keptKey()).words.Load() != nil {
		t.Fatal("a cancelled distinct fill was remembered")
	}
	sameAsTailCoin(t, d, kept(t, d, n, 2), n)
}

// FuzzKeptWord: a bitmap word is the per-row coin of its 64 rows, for both
// coins, at any seed and any rate — past 1, at 0, negative or NaN too.
func FuzzKeptWord(f *testing.F) {
	f.Add(uint64(1), 0.5, uint32(0))
	f.Add(uint64(26), 0.01, uint32(7))
	f.Add(uint64(0), 1.0, uint32(1<<20))
	f.Add(uint64(1<<63), 1e-9, uint32(3))
	f.Add(uint64(44), math.Nextafter(1, 0), uint32(1<<31))
	f.Fuzz(func(t *testing.T, seed uint64, p float64, w uint32) {
		u, d := NewUniform(p, int64(seed)), NewDistinct(p, 0, int64(seed)) // no pass-through: Decide flips d's coin for every row
		cut := keptCut(p)
		uw, dw := u.word(int(w), cut), d.word(int(w), cut)
		for i := range 64 {
			row := int(w)*64 + i
			if got := uw>>i&1 == 1; got != u.Decide(row).Keep {
				t.Fatalf("uniform p=%v seed=%d row %d: bit %v, Decide disagrees", p, seed, row, got)
			}
			if got := dw>>i&1 == 1; got != d.Decide(row, "").Keep {
				t.Fatalf("distinct p=%v seed=%d row %d: bit %v, Decide disagrees", p, seed, row, got)
			}
		}
	})
}

// TestKeptMemoBounded: a (seed, rate) pair is chosen by the caller — a
// remote shard's estimate request carries one — so more pairs than the cap
// must leave the table at the cap, evicting the least recently used: a pair
// in steady use stays. The table's counts say so too.
func TestKeptMemoBounded(t *testing.T) {
	ForgetKept()
	t.Cleanup(ForgetKept)
	before := KeptMemoStats()
	hot := NewUniform(0.1, 1)
	const pairs = 3 * maxKeptEntries
	for i := range pairs {
		kept(t, hot, 1000, 1)
		kept(t, NewUniform(0.01+float64(i)*1e-6, int64(i)), 1000, 1)
		if n := KeptMemoStats().Entries; n > maxKeptEntries || i >= maxKeptEntries && n != maxKeptEntries {
			t.Fatalf("after %d pairs the memo holds %d bitmaps (cap %d)", i+2, n, maxKeptEntries)
		}
	}
	keptMemo.mu.Lock()
	_, ok := keptMemo.entries[hot.keptKey()]
	keptMemo.mu.Unlock()
	if !ok {
		t.Error("the pair in steady use was evicted")
	}
	kept(t, hot, 2000, 1)
	after := KeptMemoStats()
	if d := (KeptStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
		Grows: after.Grows - before.Grows, Evictions: after.Evictions - before.Evictions, Entries: after.Entries}); d != (KeptStats{
		Hits: pairs - 1, Misses: pairs + 1, Grows: 1, Evictions: pairs + 1 - maxKeptEntries, Entries: maxKeptEntries}) {
		t.Errorf("counts %+v", d)
	}
}

// TestDistinctKeepRowsIsDecide: over runs of rows whose strata the caller
// numbers, KeepRows with the caller's counts and the sampler's Kept bitmap
// keeps, in order and at the same weight, exactly the rows a fresh
// sampler's Decide keeps when fed them in the same order, with a stratum
// that stays inside the pass-through, one that first appears in a later
// run, and counts carried from run to run.
func TestDistinctKeepRowsIsDecide(t *testing.T) {
	const keep = 30
	serial, byRun := NewDistinct(0.25, keep, 11), NewDistinct(0.25, keep, 11)
	keys := []string{"big", "mid", "rare", "late"}
	rng := rand.New(rand.NewSource(3))
	seen := make([]int32, len(keys))
	coin := kept(t, byRun, 9001, 2)
	heads, tails, dropped := 0, 0, 0
	for run := 0; run < 8; run++ {
		rows, strata := make([]int32, 500), make([]int32, 500)
		for i := range rows {
			rows[i] = int32(9000 - run*500 - i) // any order, as long as it is the same
			switch s := rng.Intn(40); {
			case s == 0 && run%3 == 0 && i%5 == 0:
				strata[i] = 2
			case s == 1 && run >= 5:
				strata[i] = 3
			case s < 12:
				strata[i] = 1
			}
		}
		ws := make([]float64, len(rows))
		inRows, inStrata := slices.Clone(rows), slices.Clone(strata)
		k := byRun.KeepRows(coin, rows, strata, seen, ws)
		j := 0 // the next kept row
		for i, r := range inRows {
			d := serial.Decide(int(r), keys[inStrata[i]])
			if d.Keep {
				if j >= k || rows[j] != r || strata[j] != inStrata[i] || ws[j] != d.Weight {
					t.Fatalf("run %d row %d (%s): kept %d of %d, Decide %+v", run, r, keys[inStrata[i]], j, k, d)
				}
				j++
			}
			switch d.Weight {
			case 0:
				dropped++
			case 1:
				heads++
			default:
				tails++
			}
		}
		if j != k {
			t.Fatalf("run %d: KeepRows kept %d rows, Decide %d", run, k, j)
		}
	}
	if seen[0] != keep || seen[1] != keep || seen[2] == 0 || seen[2] >= keep || seen[3] == 0 {
		t.Errorf("counts %v: want big and mid at the pass-through, rare under it, late seen", seen)
	}
	if heads != int(seen[0]+seen[1]+seen[2]+seen[3]) || tails == 0 || dropped == 0 || len(byRun.seen) != 0 {
		t.Errorf("%d heads, %d tails, %d dropped, %d strata in the sampler's own counts", heads, tails, dropped, len(byRun.seen))
	}
}
