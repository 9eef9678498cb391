package exec

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/storage"
)

var updateGolden = flag.Bool("update", false, "rewrite the partial-wire golden fixtures")

// wireQueries pins one query per aggregate kind the wire schema must
// carry: plain and column COUNTs, COUNT(DISTINCT), SUM, AVG, MIN/MAX
// (extrema values), PERCENTILE (observation lists), group-by keys, and
// the weighted samplers whose per-stratum weight-1 keeps carry zero
// variance (the FPC behavior). Each entry becomes a golden fixture.
var wireQueries = []struct{ name, sql string }{
	{"count_star", "SELECT COUNT(*) FROM ev"},
	{"count_col", "SELECT COUNT(v) FROM ev"},
	{"count_distinct", "SELECT COUNT(DISTINCT g) FROM ev"},
	{"sum_avg", "SELECT SUM(v), AVG(v) FROM ev"},
	{"min_max", "SELECT MIN(v), MAX(v) FROM ev"},
	{"percentile", "SELECT PERCENTILE(v, 0.5) FROM ev"},
	{"group_by", "SELECT g, COUNT(*), SUM(v) FROM ev GROUP BY g ORDER BY g"},
	{"weighted_bernoulli", "SELECT COUNT(*), SUM(v) FROM ev TABLESAMPLE BERNOULLI (50)"},
	{"weighted_universe", "SELECT COUNT(*) FROM ev TABLESAMPLE UNIVERSE (50) ON (g)"},
	{"group_by_sampled", "SELECT g, COUNT(*) FROM ev TABLESAMPLE SYSTEM (50) GROUP BY g ORDER BY g"},
}

func goldenPath(name string) string { return filepath.Join("testdata", "partial_wire", name+".bin") }

// TestAggPartialWireGolden: the wire encoding of every aggregate kind is
// byte-for-byte pinned by a golden fixture (run with -update to
// regenerate), the decoded partial equals the original field for field,
// decode→re-encode is byte-identical, and finalizing the decoded partial
// is bit-identical to finalizing the original — the losslessness the
// remote-shard guarantee rests on.
func TestAggPartialWireGolden(t *testing.T) {
	cat := parallelCatalog(t, 500)
	for _, q := range wireQueries {
		t.Run(q.name, func(t *testing.T) {
			part, err := RunAggPartialContext(context.Background(), buildPlan(t, cat, q.sql), 2)
			if err != nil {
				t.Fatalf("partial %q: %v", q.sql, err)
			}
			blob, err := EncodeAggPartialWire(part)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}

			path := goldenPath(q.name)
			if *updateGolden {
				if err := os.WriteFile(path, blob, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden fixture: %v (run with -update to generate)", err)
			}
			if !bytes.Equal(blob, want) {
				t.Errorf("encoding drifted from golden %s (%d bytes, golden %d)", path, len(blob), len(want))
			}

			dec, err := DecodeAggPartialWire(blob)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if diff := partialDiff(part, dec); diff != "" {
				t.Errorf("decoded partial differs from the original: %s", diff)
			}
			blob2, err := EncodeAggPartialWire(dec)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Errorf("decode→re-encode not byte-identical")
			}

			direct, err := FinalizeAggPartial(context.Background(), buildPlan(t, cat, q.sql), part)
			if err != nil {
				t.Fatalf("finalize original: %v", err)
			}
			viaWire, err := FinalizeAggPartial(context.Background(), buildPlan(t, cat, q.sql), dec)
			if err != nil {
				t.Fatalf("finalize decoded: %v", err)
			}
			assertResultsBitIdentical(t, q.sql, direct, viaWire)
		})
	}
}

// partialDiff describes the first difference between two partials, or
// returns "". Floats compare by bits; distinct sets, percentile lists and
// group values by content; each slot as the whole state it reads as.
func partialDiff(a, b *AggPartial) string {
	if a.Counters != b.Counters {
		return fmt.Sprintf("counters %+v vs %+v", a.Counters, b.Counters)
	}
	if len(a.keys) != len(b.keys) {
		return fmt.Sprintf("%d groups vs %d", len(a.keys), len(b.keys))
	}
	if len(a.keys) > 0 && (a.width != b.width || len(a.slots) != len(b.slots)) {
		return fmt.Sprintf("shape %d×%d vs %d×%d", a.width, len(a.slots), b.width, len(b.slots))
	}
	for g, k := range a.keys {
		if b.keys[g] != k || !sameBits(a.n[g], b.n[g]) {
			return fmt.Sprintf("group %d (%q) header differs", g, k)
		}
		for i, v := range a.values(g) {
			if w := b.values(g)[i]; !sameValue(v, w) {
				return fmt.Sprintf("group %q value %d: %+v vs %+v", k, i, v, w)
			}
		}
		for j := range a.slots {
			sa, sb := a.state(g, j), b.state(g, j)
			if d := aggDiff(&sa, &sb); d != "" {
				return fmt.Sprintf("group %q slot %d: %s", k, j, d)
			}
		}
	}
	return ""
}

func aggDiff(a, b *aggState) string {
	ha, hb := a.ht.State(), b.ht.State()
	for i, pair := range [][2]float64{{ha.Sum, hb.Sum}, {ha.VarSum, hb.VarSum}, {ha.N, hb.N},
		{ha.WTot, hb.WTot}, {ha.W2Tot, hb.W2Tot}, {ha.CovSN, hb.CovSN}, {a.nonNull, b.nonNull}} {
		if !sameBits(pair[0], pair[1]) {
			return fmt.Sprintf("float field %d: %v vs %v", i, pair[0], pair[1])
		}
	}
	if a.weighted != b.weighted || !sameValue(a.min, b.min) || !sameValue(a.max, b.max) {
		return fmt.Sprintf("flags or extrema: %+v vs %+v", a, b)
	}
	if len(a.distinct) != len(b.distinct) {
		return fmt.Sprintf("distinct sets of %d vs %d", len(a.distinct), len(b.distinct))
	}
	for d := range a.distinct {
		if _, ok := b.distinct[d]; !ok {
			return fmt.Sprintf("distinct %q missing", d)
		}
	}
	for _, pair := range [][2][]float64{{a.pctVals, b.pctVals}, {a.pctWeights, b.pctWeights}} {
		if len(pair[0]) != len(pair[1]) {
			return fmt.Sprintf("percentile lists of %d vs %d", len(pair[0]), len(pair[1]))
		}
		for i := range pair[0] {
			if !sameBits(pair[0][i], pair[1][i]) {
				return fmt.Sprintf("percentile entry %d: %v vs %v", i, pair[0][i], pair[1][i])
			}
		}
	}
	return ""
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameValue(a, b storage.Value) bool {
	return a.Typ == b.Typ && a.Null == b.Null && a.I == b.I && sameBits(a.F, b.F) && a.S == b.S && a.B == b.B
}

// TestAggPartialMixedLayoutMerge: an in-process partial holds its SUM,
// COUNT and AVG slots as HT sums only, a decoded one every slot whole. For
// every wire shape, merging an in-process partial with a decoded one, in
// either order and either way round, is bit-identical to merging two
// in-process partials, finalized and re-encoded. The small table lacks
// some of the large one's groups, so both the in-place merge and the
// merged list are taken.
func TestAggPartialMixedLayoutMerge(t *testing.T) {
	ctx := context.Background()
	cats := []*storage.Catalog{parallelCatalog(t, 500), parallelCatalog(t, 9)}
	for _, q := range wireQueries {
		t.Run(q.name, func(t *testing.T) {
			run := func(c int) *AggPartial {
				part, err := RunAggPartialContext(ctx, buildPlan(t, cats[c], q.sql), 2)
				if err != nil {
					t.Fatal(err)
				}
				return part
			}
			decoded := func(c int) *AggPartial {
				blob, err := EncodeAggPartialWire(run(c))
				if err != nil {
					t.Fatal(err)
				}
				dec, err := DecodeAggPartialWire(blob)
				if err != nil {
					t.Fatal(err)
				}
				return dec
			}
			finish := func(part *AggPartial) (*Result, []byte) {
				res, err := FinalizeAggPartial(ctx, buildPlan(t, cats[0], q.sql), part)
				if err != nil {
					t.Fatal(err)
				}
				blob, err := EncodeAggPartialWire(part)
				if err != nil {
					t.Fatal(err)
				}
				return res, blob
			}
			for _, order := range [][2]int{{0, 1}, {1, 0}} {
				a, b := order[0], order[1]
				want, wantBlob := finish(MergeAggPartials([]*AggPartial{run(a), run(b)}))
				for _, mixed := range [][]*AggPartial{{run(a), decoded(b)}, {decoded(a), run(b)}} {
					got, blob := finish(MergeAggPartials(mixed))
					assertResultsBitIdentical(t, q.sql, want, got)
					if !bytes.Equal(blob, wantBlob) {
						t.Errorf("tables %v: mixed merge re-encodes to other bytes", order)
					}
				}
			}
		})
	}
}

// TestAggPartialWireSpecialFloats: −0, ±Inf, a NaN with a payload, a
// denormal and ±MaxFloat64 cross an HT state, a group weight, an extremum
// and a percentile list with their exact bits.
func TestAggPartialWireSpecialFloats(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	special := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), nan,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	st := &aggState{
		ht: stats.HTFromState(stats.HTState{Sum: special[0], VarSum: special[1], N: special[2],
			WTot: special[3], W2Tot: special[4], CovSN: special[5]}),
		nonNull:    special[6],
		min:        storage.Float64(special[0]),
		max:        storage.Float64(nan),
		pctVals:    special,
		pctWeights: special,
	}
	part := &AggPartial{keys: []string{""}, groupStripes: newGroupStripes([]bool{false}, 1)}
	part.add()
	part.n[0], part.slots[0].whole[0] = nan, *st
	blob, err := EncodeAggPartialWire(part)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeAggPartialWire(blob)
	if err != nil {
		t.Fatal(err)
	}
	if diff := partialDiff(part, dec); diff != "" {
		t.Fatalf("special floats did not survive the wire: %s", diff)
	}
}

// TestAggPartialWireVersionRejected: anything but a well-formed v2
// partial — a JSON v1 body, a wrong magic, another version, a truncation,
// trailing bytes, a count the bytes cannot hold — is refused loudly with
// an error naming the versions. A misread accumulator would be a silently
// wrong answer.
func TestAggPartialWireVersionRejected(t *testing.T) {
	blob, err := os.ReadFile(goldenPath("group_by"))
	if err != nil {
		t.Fatal(err)
	}
	v99 := append(append([]byte{}, wireMagic...), 99)
	v99 = append(v99, blob[len(wireMagic)+1:]...)
	// Magic, version, zero counters, key width, slots, then 2^40 groups.
	huge := binary.AppendUvarint(append(append([]byte{}, wireMagic...), 2, 0, 0, 0, 0, 0, 0, 0), 1<<40)
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"json v1", "JSON body (wire v1); this build speaks binary v2",
			[]byte(`{"v":1,"counters":{"RowsScanned":500},"groups":[]}`)},
		{"bad magic", "bad magic", []byte("AQPX\x02")},
		{"empty", "bad magic", nil},
		{"version 99", "version 99 unsupported (this build speaks v2)", v99},
		{"trailing bytes", "v2: 1 trailing bytes", append(bytes.Clone(blob), 0)},
		{"2^40 groups", "v2: count 1099511627776 does not fit", huge},
	} {
		if _, err := DecodeAggPartialWire(tc.data); err == nil {
			t.Errorf("%s: decoded without complaint", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not say %q", tc.name, err, tc.want)
		}
	}
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeAggPartialWire(blob[:n]); err == nil {
			t.Fatalf("a %d-byte truncation of a %d-byte partial decoded", n, len(blob))
		}
	}
	if _, err := EncodeAggPartialWire(nil); err == nil {
		t.Fatal("encoded a nil partial without complaint")
	}
}

// TestAggPartialWireClaimsBoundMemory: a body whose counts fit its length
// but claim items far larger in memory than on the wire — a key of
// len/2 values, a distinct set of len strings — is refused without
// committing more than a small multiple of its length first.
func TestAggPartialWireClaimsBoundMemory(t *testing.T) {
	const size = 1 << 20
	header := func(width, slots int) []byte {
		b := append([]byte{}, wireMagic...)
		for _, v := range []int{AggPartialWireVersion, 0, 0, 0, 0, 0, width, slots, 1} {
			b = binary.AppendUvarint(b, uint64(v))
		}
		return b
	}
	// One group, key "", then a value with unknown flag bits.
	wide := append(header(size/2-16, 0), 0, 0, 0xff)
	wide = append(wide, make([]byte, size-len(wide))...)
	// One group, key "", n, one aggregate whose distinct set claims every
	// byte left; the zero bytes read as empty strings, out of order.
	distinct := append(header(0, 1), make([]byte, 1+8)...)
	distinct = append(distinct, aggDistinct)
	distinct = append(distinct, make([]byte, 7*8)...)
	distinct = binary.AppendUvarint(distinct, uint64(size-len(distinct)-3))
	distinct = append(distinct, make([]byte, size-len(distinct))...)
	for name, data := range map[string][]byte{"wide key": wide, "distinct set": distinct} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeAggPartialWire(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: decoded without complaint", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 8*size {
			t.Errorf("%s: refusing a %d-byte body allocated %d bytes", name, size, got)
		}
	}
}

// FuzzDecodeAggPartialWire: the decoder is the one parser another process
// feeds. It must never panic, never allocate from a count the input cannot
// back, any input it accepts must re-encode to bytes that decode to the
// same partial, and that partial must merge with a decoded copy of itself.
func FuzzDecodeAggPartialWire(f *testing.F) {
	for _, q := range wireQueries {
		blob, err := os.ReadFile(goldenPath(q.name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		for _, n := range []int{0, 4, 5, 11, 14, len(blob) / 3, len(blob) / 2, len(blob) - 8, len(blob) - 1} {
			if n >= 0 && n < len(blob) {
				f.Add(blob[:n])
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeAggPartialWire(data)
		if err != nil {
			return
		}
		again, err := EncodeAggPartialWire(p)
		if err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		q, err := DecodeAggPartialWire(again)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if diff := partialDiff(p, q); diff != "" {
			t.Fatalf("re-encoding decodes to a different partial: %s", diff)
		}
		if MergeAggPartials([]*AggPartial{p, q}).NumGroups() != q.NumGroups() {
			t.Fatal("merging a partial with a copy of itself changed its groups")
		}
	})
}
