package exec

// Wire serialization of AggPartial states.
//
// A remote shard's /shard/estimate reply body is exactly these bytes, and
// the gather step merges the decoded partials as it merges in-process
// ones. Bit-reproducibility is a repository guarantee, so the codec is
// lossless to the bit: every float64 travels as its raw IEEE-754 bits, so
// ±0, ±Inf, NaN payloads and denormals cross unchanged with no decimal
// detour to get wrong. Encoding is deterministic (groups in sorted key
// order, distinct sets sorted), so it is golden-testable. The decoder is
// the one parser another process feeds: it checks every count against the
// bytes left, presizes memory only as far as those bytes can back, consumes
// its input exactly, and refuses an unknown version — the JSON v1 body
// included — loudly, because a silently misread accumulator would be a
// silently wrong answer.
//
// Layout (every integer a uvarint, int64s as their two's-complement bits;
// f64 is 8 bytes, little-endian; str is a uvarint length and the bytes):
//
//	"AQPW" · version · 5 Counters · key width · slots · groups
//	group (strictly increasing key order):
//	  str key · width × value · f64 n · slots × agg
//	value: byte type · byte flags (null, bool, I, F, S) · [I] [f64 F] [str S]
//	agg: byte flags (weighted, min, max, distinct, pct values, pct weights)
//	  6 × f64 HT state · f64 non-null · [value min] [value max]
//	  [n · n × str, strictly increasing] [n · n × f64] [n · n × f64]

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/stats"
	"repro/internal/storage"
)

// AggPartialWireVersion is the current wire schema version for
// serialized partial aggregation states (v1 was JSON).
const AggPartialWireVersion = 2

// wireMagic opens every encoded partial.
var wireMagic = []byte("AQPW")

// Flag bits: which of a value's fields follow its type, and which of an
// aggregate slot's optional parts follow its fixed ones.
const (
	valNull, valBool, valI, valF, valS, valKnown                                  = 1, 2, 4, 8, 16, 31
	aggWeighted, aggMin, aggMax, aggDistinct, aggPctVals, aggPctWeights, aggKnown = 1, 2, 4, 8, 16, 32, 63
)

// EncodeAggPartialWire serializes a partial aggregation state. The output
// is deterministic: groups in the partial's key order, distinct sets sorted.
func EncodeAggPartialWire(p *AggPartial) ([]byte, error) {
	if p == nil {
		return nil, fmt.Errorf("exec: cannot encode a nil partial")
	}
	var width, slots int
	if len(p.keys) > 0 {
		width, slots = p.width, len(p.slots)
	}
	buf := append(make([]byte, 0, 64+len(p.keys)*(24+12*width+64*slots)), wireMagic...)
	c := p.Counters
	for _, v := range [...]int64{AggPartialWireVersion, c.RowsScanned, c.RowsEmitted, c.BlocksScanned,
		c.BlocksSkipped, c.Passes, int64(width), int64(slots), int64(len(p.keys))} {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	for g, k := range p.keys {
		buf = appendStr(buf, k)
		for _, v := range p.values(g) {
			buf = appendValue(buf, v)
		}
		buf = appendF64s(buf, p.n[g])
		for j := range slots {
			buf = appendAgg(buf, p.state(g, j))
		}
	}
	return buf, nil
}

func appendF64s(buf []byte, fs ...float64) []byte {
	for _, f := range fs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	return buf
}

func appendStr(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// bit returns flag when cond holds, else 0.
func bit(cond bool, flag byte) byte {
	if cond {
		return flag
	}
	return 0
}

// appendValue writes a value's type and every field that is not zero, so
// a value crosses whole whatever its type.
func appendValue(buf []byte, v storage.Value) []byte {
	f := bit(v.Null, valNull) | bit(v.B, valBool) | bit(v.I != 0, valI) |
		bit(math.Float64bits(v.F) != 0, valF) | bit(v.S != "", valS)
	buf = append(buf, byte(v.Typ), f)
	if f&valI != 0 {
		buf = binary.AppendUvarint(buf, uint64(v.I))
	}
	if f&valF != 0 {
		buf = appendF64s(buf, v.F)
	}
	if f&valS != 0 {
		buf = appendStr(buf, v.S)
	}
	return buf
}

// zeroValue reports whether v is the zero Value, bit for bit.
func zeroValue(v storage.Value) bool {
	return v.Typ == storage.TypeInvalid && !v.Null && !v.B && v.I == 0 && math.Float64bits(v.F) == 0 && v.S == ""
}

func appendAgg(buf []byte, st aggState) []byte {
	f := bit(st.weighted, aggWeighted) | bit(!zeroValue(st.min), aggMin) | bit(!zeroValue(st.max), aggMax) |
		bit(st.distinct != nil, aggDistinct) | bit(st.pctVals != nil, aggPctVals) | bit(st.pctWeights != nil, aggPctWeights)
	h := st.ht.State()
	buf = appendF64s(append(buf, f), h.Sum, h.VarSum, h.N, h.WTot, h.W2Tot, h.CovSN, st.nonNull)
	if f&aggMin != 0 {
		buf = appendValue(buf, st.min)
	}
	if f&aggMax != 0 {
		buf = appendValue(buf, st.max)
	}
	if f&aggDistinct != 0 {
		set := make([]string, 0, len(st.distinct))
		for d := range st.distinct {
			set = append(set, d)
		}
		slices.Sort(set)
		buf = binary.AppendUvarint(buf, uint64(len(set)))
		for _, d := range set {
			buf = appendStr(buf, d)
		}
	}
	if f&aggPctVals != 0 {
		buf = appendF64s(binary.AppendUvarint(buf, uint64(len(st.pctVals))), st.pctVals...)
	}
	if f&aggPctWeights != 0 {
		buf = appendF64s(binary.AppendUvarint(buf, uint64(len(st.pctWeights))), st.pctWeights...)
	}
	return buf
}

// wireReader consumes an encoded partial. The first failure sticks and
// empties the buffer, so every later read yields zeros and every later
// count 0: the decoder's loops end without a check per read.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("exec: decode partial wire v%d: %s", AggPartialWireVersion, fmt.Sprintf(format, args...))
	}
	r.b = nil
}

// take consumes n bytes, n being a constant or a checked count.
func (r *wireReader) take(n int) []byte {
	if len(r.b) < n {
		r.fail("truncated")
		return make([]byte, n)
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads the length of a run of items each at least size bytes long,
// refusing one the bytes left cannot hold — so no count reaches make
// unchecked.
func (r *wireReader) count(size int) int {
	v := r.uvarint()
	if v > uint64(len(r.b)/size) {
		r.fail("count %d does not fit in the %d bytes left", v, len(r.b))
		return 0
	}
	return int(v)
}

// flags reads a flag byte, refusing bits outside known.
func (r *wireReader) flags(known byte) byte {
	f := r.take(1)[0]
	if f&^known != 0 {
		r.fail("unknown flag bits %#x", f)
	}
	return f
}

func (r *wireReader) f64() float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(r.take(8)))
}

func (r *wireReader) f64s() []float64 {
	fs := make([]float64, r.count(8))
	for i := range fs {
		fs[i] = r.f64()
	}
	return fs
}

func (r *wireReader) str() string { return string(r.take(r.count(1))) }

func (r *wireReader) value() storage.Value {
	v := storage.Value{Typ: storage.Type(r.take(1)[0])}
	f := r.flags(valKnown)
	v.Null, v.B = f&valNull != 0, f&valBool != 0
	if f&valI != 0 {
		v.I = int64(r.uvarint())
	}
	if f&valF != 0 {
		v.F = r.f64()
	}
	if f&valS != 0 {
		v.S = r.str()
	}
	return v
}

func (r *wireReader) agg(st *aggState) {
	f := r.flags(aggKnown)
	st.weighted = f&aggWeighted != 0
	st.ht = stats.HTFromState(stats.HTState{Sum: r.f64(), VarSum: r.f64(), N: r.f64(),
		WTot: r.f64(), W2Tot: r.f64(), CovSN: r.f64()})
	st.nonNull = r.f64()
	if f&aggMin != 0 {
		st.min = r.value()
	}
	if f&aggMax != 0 {
		st.max = r.value()
	}
	if f&aggDistinct != 0 {
		n := r.count(1)
		// Presized only as far as the bytes left can back, at up to 64
		// bytes a string-keyed entry once the table rounds up.
		st.distinct = make(map[string]struct{}, min(n, slabMemPerWireByte*len(r.b)/64))
		prev := ""
		for i := 0; i < n; i++ {
			d := r.str()
			if i > 0 && d <= prev {
				r.fail("distinct set out of order at %q", d)
			}
			st.distinct[d], prev = struct{}{}, d
		}
	}
	if f&aggPctVals != 0 {
		st.pctVals = r.f64s()
	}
	if f&aggPctWeights != 0 {
		st.pctWeights = r.f64s()
	}
}

// slabMemPerWireByte bounds the memory the decoder presizes by the bytes
// left. A group is at least 9 bytes on the wire and 25 in its stripes, and
// a slot of it at least 57 and 216, so stripes presized for the groups a
// count claims stay under it; group values and distinct sets, far larger
// in memory than on the wire, are presized only as far as it allows.
const slabMemPerWireByte = 4

// DecodeAggPartialWire deserializes a partial aggregation state,
// consuming data exactly.
func DecodeAggPartialWire(data []byte) (*AggPartial, error) {
	if !bytes.HasPrefix(data, wireMagic) {
		what := fmt.Sprintf("bad magic %q", data[:min(len(data), len(wireMagic))])
		if len(data) > 0 && data[0] == '{' {
			what = "a JSON body (wire v1)"
		}
		return nil, fmt.Errorf("exec: decode partial wire: %s; this build speaks binary v%d", what, AggPartialWireVersion)
	}
	r := &wireReader{b: data[len(wireMagic):]}
	if v := r.uvarint(); r.err == nil && v != AggPartialWireVersion {
		return nil, fmt.Errorf("exec: partial wire version %d unsupported (this build speaks v%d): refusing to guess at an accumulator schema", v, AggPartialWireVersion)
	}
	p := &AggPartial{}
	c := &p.Counters
	for _, dst := range [...]*int64{&c.RowsScanned, &c.RowsEmitted, &c.BlocksScanned, &c.BlocksSkipped, &c.Passes} {
		*dst = int64(r.uvarint())
	}
	width := r.count(2)  // a value is at least its type and flags
	slots := r.count(57) // an aggregate is at least its flags and 7 floats
	n := r.count(1 + 2*width + 8 + 57*slots)
	// Every slot is held whole: the wire does not say which are HT sums
	// only. Values grow past what the bytes left can back only as read.
	p.width, p.keys, p.groupStripes = width, make([]string, 0, n), newGroupStripes(make([]bool, slots), n)
	p.vals = make([]storage.Value, 0, min(n*width, slabMemPerWireByte*len(r.b)/int(unsafe.Sizeof(storage.Value{}))))
	for g := 0; g < n && r.err == nil; g++ {
		key := r.str()
		if g > 0 && key <= p.keys[g-1] {
			r.fail("group keys out of order at %q", key)
		}
		p.keys = append(p.keys, key)
		for j := 0; j < width && r.err == nil; j++ {
			p.vals = append(p.vals, r.value())
		}
		p.add()
		p.n[g] = r.f64()
		for j := 0; j < slots && r.err == nil; j++ {
			r.agg(&p.slots[j].whole[g])
		}
	}
	if len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return p, nil
}
