package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// gatherSchema has one column of every type; weightedSchema adds a
// stored sample's weight column.
var (
	gatherSchema = Schema{
		{Name: "i", Type: TypeInt64},
		{Name: "f", Type: TypeFloat64},
		{Name: "s", Type: TypeString},
		{Name: "b", Type: TypeBool},
	}
	weightedSchema = append(gatherSchema.Clone(), ColumnDef{Name: "w", Type: TypeFloat64})
)

// hostileRow draws a row whose cells are often the values a typed copy
// gets wrong: NULLs, NaN, ±Inf, −0, 2^53+1, the extremes of int64 and
// the empty string.
func hostileRow(rng *rand.Rand, strs []string) []Value {
	ints := []Value{NullValue(TypeInt64), Int64(0), Int64(1<<53 + 1), Int64(math.MinInt64), Int64(math.MaxInt64), Int64(-7)}
	floats := []Value{NullValue(TypeFloat64), Float64(math.NaN()), Float64(math.Inf(1)), Float64(math.Inf(-1)),
		Float64(math.Copysign(0, -1)), Float64(0), Float64(1<<53 + 1), Float64(2.5)}
	bools := []Value{NullValue(TypeBool), Bool(true), Bool(false)}
	s := NullValue(TypeString)
	if k := rng.Intn(len(strs) + 1); k < len(strs) {
		s = Str(strs[k])
	}
	return []Value{ints[rng.Intn(len(ints))], floats[rng.Intn(len(floats))], s, bools[rng.Intn(len(bools))]}
}

// fillTable appends rows to a new table with the given schema.
func fillTable(t *testing.T, name string, schema Schema, rows [][]Value) *Table {
	t.Helper()
	tbl := NewTable(name, schema)
	if err := tbl.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// sameTables fails unless a and b hold the same column data bit for bit:
// values, NULL marks, string codes and dictionaries, row count and
// version.
func sameTables(t *testing.T, what string, a, b *Table) {
	t.Helper()
	if a.NumRows() != b.NumRows() || a.Version() != b.Version() {
		t.Fatalf("%s: rows %d/%d, version %d/%d", what, a.NumRows(), b.NumRows(), a.Version(), b.Version())
	}
	for i := range a.cols {
		name := a.schema[i].Name
		switch ca := a.cols[i].(type) {
		case *Int64Column:
			cb := b.cols[i].(*Int64Column)
			if !slices.Equal(ca.data, cb.data) || !slices.Equal(ca.nulls, cb.nulls) {
				t.Fatalf("%s: column %s: %v %v vs %v %v", what, name, ca.data, ca.nulls, cb.data, cb.nulls)
			}
		case *Float64Column:
			cb := b.cols[i].(*Float64Column)
			bits := func(xs []float64) []uint64 {
				out := make([]uint64, len(xs))
				for j, x := range xs {
					out[j] = math.Float64bits(x)
				}
				return out
			}
			if !slices.Equal(bits(ca.data), bits(cb.data)) || !slices.Equal(ca.nulls, cb.nulls) {
				t.Fatalf("%s: column %s: %v %v vs %v %v", what, name, ca.data, ca.nulls, cb.data, cb.nulls)
			}
		case *BoolColumn:
			cb := b.cols[i].(*BoolColumn)
			if !slices.Equal(ca.data, cb.data) || !slices.Equal(ca.nulls, cb.nulls) {
				t.Fatalf("%s: column %s: %v %v vs %v %v", what, name, ca.data, ca.nulls, cb.data, cb.nulls)
			}
		case *StringColumn:
			cb := b.cols[i].(*StringColumn)
			if !slices.Equal(ca.codes, cb.codes) || !slices.Equal(ca.keys, cb.keys) || ca.NumCodes() != cb.NumCodes() || len(ca.index) != len(cb.index) {
				t.Fatalf("%s: column %s: codes %v dict %q vs codes %v dict %q", what, name, ca.codes, ca.keys, cb.codes, cb.keys)
			}
			for s, code := range ca.index {
				if cb.index[s] != code {
					t.Fatalf("%s: column %s: index %v vs %v", what, name, ca.index, cb.index)
				}
			}
		}
	}
}

// TestAppendGatherMatchesAppendRows is the gather's contract: appending
// src's rows at any index list, with a weight column or without, leaves the
// destination exactly as AppendRows of the boxed rows does — the same
// values to the bit, NULL marks (nil until the first NULL), dictionary
// codes in first-seen order, row count and one Version step. Destinations
// start non-empty, with and without NULLs, their dictionaries holding
// some of src's strings and some of their own.
func TestAppendGatherMatchesAppendRows(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	srcStrs := []string{"", "AIR", "RAIL", "s", "\x00N", "TRUCK", "MAIL"}
	dstStrs := []string{"RAIL", "ZEPPELIN", ""}
	for trial := 0; trial < 300; trial++ {
		srcRows := make([][]Value, 1+rng.Intn(60))
		for i := range srcRows {
			srcRows[i] = hostileRow(rng, srcStrs)
		}
		if trial%5 == 0 { // a source with no NULL and a tiny dictionary
			for i := range srcRows {
				srcRows[i] = []Value{Int64(int64(i)), Float64(float64(i)), Str(srcStrs[i%2]), Bool(i%2 == 0)}
			}
		}
		src := fillTable(t, "src", gatherSchema, srcRows)

		var dstRows [][]Value
		for i := rng.Intn(6); i > 0; i-- {
			row := hostileRow(rng, dstStrs)
			if trial%2 == 0 { // a destination with no NULL yet
				row = []Value{Int64(int64(i)), Float64(-1), Str(dstStrs[i%len(dstStrs)]), Bool(true)}
			}
			dstRows = append(dstRows, row)
		}

		// Any order, repeats allowed; every fourth trial gathers nothing.
		var rows []int
		if trial%4 != 3 {
			for k := rng.Intn(2 * src.NumRows()); k > 0; k-- {
				rows = append(rows, rng.Intn(src.NumRows()))
			}
		}
		weights := make([]float64, len(rows))
		for k := range weights {
			weights[k] = []float64{1, 2.5, math.Inf(1), math.Copysign(0, -1)}[rng.Intn(4)]
		}

		for _, weighted := range []bool{false, true} {
			schema := gatherSchema
			if weighted {
				schema = weightedSchema
			}
			seed := dstRows
			if weighted {
				seed = make([][]Value, len(dstRows))
				for k, row := range dstRows {
					w := Float64(float64(k))
					if trial%3 == 0 && k == 0 { // a weight column with NULL marks
						w = NullValue(TypeFloat64)
					}
					seed[k] = append(slices.Clip(row), w)
				}
			}
			want := fillTable(t, "dst", schema, seed)
			got := fillTable(t, "dst", schema, seed)
			boxed := make([][]Value, len(rows))
			for k, r := range rows {
				boxed[k] = src.Row(r)
				if weighted {
					boxed[k] = append(boxed[k], Float64(weights[k]))
				}
			}
			if err := want.AppendRows(boxed); err != nil {
				t.Fatal(err)
			}
			ws := weights
			if !weighted {
				ws = nil
			}
			if err := got.AppendGather(src, rows, ws); err != nil {
				t.Fatal(err)
			}
			sameTables(t, "gather vs rows", got, want)
			// Both stay appendable alike: the dictionary index is live.
			next := []Value{Int64(1), Float64(1), Str("ZEPPELIN"), Bool(false)}
			if weighted {
				next = append(next, Float64(1))
			}
			if err := want.AppendRow(next...); err != nil {
				t.Fatal(err)
			}
			if err := got.AppendRow(next...); err != nil {
				t.Fatal(err)
			}
			sameTables(t, "after a later AppendRow", got, want)
		}
	}
}

// TestAppendGatherFromItself gathers a live table's own rows into it: the
// rows are read from a snapshot, so the append sees the table as it was.
func TestAppendGatherFromItself(t *testing.T) {
	rows := [][]Value{{Int64(1), Float64(1), Str("a"), Bool(true)}, {NullValue(TypeInt64), Float64(2), Str("b"), NullValue(TypeBool)}}
	want := fillTable(t, "t", gatherSchema, rows)
	if err := want.AppendRows([][]Value{rows[1], rows[0], rows[1]}); err != nil {
		t.Fatal(err)
	}
	got := fillTable(t, "t", gatherSchema, rows)
	if err := got.AppendGather(got, []int{1, 0, 1}, nil); err != nil {
		t.Fatal(err)
	}
	sameTables(t, "self gather", got, want)
}

// TestAppendGatherRefusesUnchanged feeds the gather every kind of bad
// call and requires an error and a table left exactly as it was.
func TestAppendGatherRefusesUnchanged(t *testing.T) {
	src := fillTable(t, "src", gatherSchema, [][]Value{{Int64(1), Float64(1), Str("new"), Bool(true)}})
	swapped := Schema{gatherSchema[1], gatherSchema[0], gatherSchema[2], gatherSchema[3]}
	labelled := append(gatherSchema.Clone(), ColumnDef{Name: "w", Type: TypeString})
	cases := []struct {
		name    string
		schema  Schema
		rows    []int
		weights []float64
	}{
		{"row past the end", gatherSchema, []int{0, 1}, nil},
		{"negative row", gatherSchema, []int{-1}, nil},
		{"column types differ", swapped, []int{0}, nil},
		{"missing weights", weightedSchema, []int{0}, nil},
		{"weights too short", weightedSchema, []int{0, 0}, []float64{1}},
		{"weight column not DOUBLE", labelled, []int{0}, []float64{1}},
		{"weights on no weight column", gatherSchema, []int{0}, []float64{1}},
		{"two columns past src's", append(weightedSchema.Clone(), ColumnDef{Name: "v", Type: TypeFloat64}), []int{0}, []float64{1}},
	}
	for _, tc := range cases {
		seed := []Value{Int64(9), Float64(9), Str("old"), Bool(false)}
		for _, def := range tc.schema[len(gatherSchema):] {
			seed = append(seed, NullValue(def.Type))
		}
		if tc.name == "column types differ" {
			seed[0], seed[1] = seed[1], seed[0]
		}
		dst := fillTable(t, "dst", tc.schema, [][]Value{seed})
		before := fillTable(t, "dst", tc.schema, [][]Value{seed})
		if err := dst.AppendGather(src, tc.rows, tc.weights); err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
		sameTables(t, tc.name, dst, before)
	}
}

// TestAppendRowsRefusesUnchanged: a batch with a row of the wrong arity
// or a value of the wrong type is refused whole. Before the refusal the
// batch has already appended rows that bring new strings and NULLs, the
// first NULLs of some columns; afterwards the table, dictionaries, NULL marks and Version
// included, equals a twin that never saw the batch, and the next append
// lands where it should. Before batches were cut back, the cells before
// the bad one stayed, the columns went ragged, and the next row's BIGINT
// was lost.
func TestAppendRowsRefusesUnchanged(t *testing.T) {
	schema := Schema{{Name: "a", Type: TypeInt64}, {Name: "b", Type: TypeString}, {Name: "c", Type: TypeFloat64}, {Name: "d", Type: TypeBool}}
	for _, seed := range [][][]Value{
		{{Int64(0), Str("w"), Float64(1), Bool(true)}},
		{{NullValue(TypeInt64), Str("w"), NullValue(TypeFloat64), Bool(true)}}, // NULL marks before the batch
		nil,
	} {
		refuseBatches(t, schema, seed)
	}
}

// refuseBatches is TestAppendRowsRefusesUnchanged from one starting table.
func refuseBatches(t *testing.T, schema Schema, seed [][]Value) {
	t.Helper()
	tbl := fillTable(t, "t", schema, seed)
	twin := fillTable(t, "t", schema, seed)
	fresh := []Value{NullValue(TypeInt64), Str("x"), NullValue(TypeFloat64), NullValue(TypeBool)}
	for _, tc := range []struct {
		bad  []Value
		want string
	}{
		{[]Value{Int64(2), Int64(3), Float64(1), Bool(true)}, "column b"}, // BIGINT in the VARCHAR column
		{[]Value{Int64(2), Str("z"), Str("3"), Bool(true)}, "column c"},   // VARCHAR in the DOUBLE column, after a new string
		{[]Value{Str("2"), Str("w"), Float64(1), Bool(true)}, "column a"}, // VARCHAR in the BIGINT column
		{[]Value{Int64(2), Str("z"), Float64(1), Int64(1)}, "column d"},   // BIGINT in the BOOLEAN column
		{[]Value{Int64(2), Str("z")}, "row has 2 values"},                 // a short row
	} {
		err := tbl.AppendRows([][]Value{fresh, {Int64(1), Str("y"), Float64(2), Bool(false)}, tc.bad})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("AppendRows with bad row %v: err = %v, want %q", tc.bad, err, tc.want)
		}
		sameTables(t, fmt.Sprintf("after refusing %v", tc.bad), tbl, twin)
	}
	next := []Value{Int64(9), Str("y"), Float64(3), Bool(false)}
	if err := tbl.AppendRow(next...); err != nil {
		t.Fatal(err)
	}
	if err := twin.AppendRow(next...); err != nil {
		t.Fatal(err)
	}
	sameTables(t, "after a later AppendRow", tbl, twin)
	if got := tbl.Row(len(seed)); fmt.Sprint(got) != fmt.Sprint(next) {
		t.Fatalf("row %d reads %v, want %v", len(seed), got, next)
	}
}
