package storage

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValueBasics(t *testing.T) {
	cases := []struct {
		v    Value
		s    string
		null bool
	}{
		{Int64(42), "42", false},
		{Float64(2.5), "2.5", false},
		{Str("hi"), "hi", false},
		{Bool(true), "true", false},
		{NullValue(TypeInt64), "NULL", true},
		{Value{}, "NULL", true},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.s {
			t.Errorf("String() = %q, want %q", got, c.s)
		}
		if got := c.v.IsNull(); got != c.null {
			t.Errorf("IsNull(%v) = %v, want %v", c.v, got, c.null)
		}
	}
}

func TestValueNumericCoercion(t *testing.T) {
	if !Int64(3).Equal(Float64(3)) {
		t.Error("3 (int) should equal 3.0 (float)")
	}
	if Int64(3).Equal(Float64(3.5)) {
		t.Error("3 should not equal 3.5")
	}
	if Int64(3).GroupKey() != Float64(3).GroupKey() {
		t.Error("numeric group keys must agree for equal values")
	}
	if Int64(3).Compare(Float64(3.5)) != -1 {
		t.Error("3 < 3.5")
	}
}

func TestValueCompareOrdering(t *testing.T) {
	if NullValue(TypeInt64).Compare(Int64(-100)) != -1 {
		t.Error("NULL must sort first")
	}
	if Str("a").Compare(Str("b")) != -1 || Str("b").Compare(Str("a")) != 1 {
		t.Error("string compare broken")
	}
	if Bool(false).Compare(Bool(true)) != -1 {
		t.Error("false < true")
	}
}

func TestParseValue(t *testing.T) {
	v, err := ParseValue(TypeInt64, "123")
	if err != nil || v.I != 123 {
		t.Fatalf("ParseValue int: %v %v", v, err)
	}
	v, err = ParseValue(TypeFloat64, "1.5")
	if err != nil || v.F != 1.5 {
		t.Fatalf("ParseValue float: %v %v", v, err)
	}
	v, err = ParseValue(TypeBool, "true")
	if err != nil || !v.B {
		t.Fatalf("ParseValue bool: %v %v", v, err)
	}
	if _, err := ParseValue(TypeInt64, "xyz"); err == nil {
		t.Fatal("expected parse error")
	}
	v, err = ParseValue(TypeInt64, "NULL")
	if err != nil || !v.IsNull() {
		t.Fatalf("ParseValue NULL: %v %v", v, err)
	}
}

func TestColumnTypes(t *testing.T) {
	for _, typ := range []Type{TypeInt64, TypeFloat64, TypeString, TypeBool} {
		c := NewColumn(typ)
		if c.Type() != typ {
			t.Errorf("NewColumn(%v).Type() = %v", typ, c.Type())
		}
		if err := c.Append(NullValue(typ)); err != nil {
			t.Errorf("append NULL to %v: %v", typ, err)
		}
		if !c.IsNull(0) {
			t.Errorf("%v: expected NULL at 0", typ)
		}
	}
}

func TestColumnTypeMismatch(t *testing.T) {
	c := NewColumn(TypeInt64)
	if err := c.Append(Str("x")); err == nil {
		t.Fatal("expected type error appending string to int column")
	}
	s := NewColumn(TypeString)
	if err := s.Append(Int64(5)); err == nil {
		t.Fatal("expected type error appending int to string column")
	}
}

func TestColumnRoundTrip(t *testing.T) {
	c := NewColumn(TypeFloat64)
	want := []float64{1, 2.5, -3, 0}
	for _, f := range want {
		if err := c.Append(Float64(f)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != len(want) {
		t.Fatalf("Len = %d", c.Len())
	}
	for i, f := range want {
		if got := c.Value(i).F; got != f {
			t.Errorf("Value(%d) = %v, want %v", i, got, f)
		}
	}
}

func TestTableAppendAndBlocks(t *testing.T) {
	tbl := NewTableWithBlockSize("t", Schema{{Name: "a", Type: TypeInt64}}, 10)
	for i := 0; i < 25; i++ {
		if err := tbl.AppendRow(Int64(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.NumRows() != 25 {
		t.Fatalf("NumRows = %d", tbl.NumRows())
	}
	if v := tbl.Version(); v != 25 {
		t.Fatalf("Version = %d, want 25 (one bump per append)", v)
	}
}

func TestTableSchemaMismatch(t *testing.T) {
	tbl := NewTable("t", Schema{{Name: "a", Type: TypeInt64}, {Name: "b", Type: TypeString}})
	if err := tbl.AppendRow(Int64(1)); err == nil {
		t.Fatal("expected arity error")
	}
	if err := tbl.AppendRow(Str("x"), Str("y")); err == nil {
		t.Fatal("expected type error")
	}
}

func TestTableStats(t *testing.T) {
	tbl := NewTable("t", Schema{{Name: "x", Type: TypeFloat64}})
	vals := []float64{1, 2, 3, 4, 5}
	for _, v := range vals {
		if err := tbl.AppendRow(Float64(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.AppendRow(NullValue(TypeFloat64)); err != nil {
		t.Fatal(err)
	}
	st, err := tbl.Stats("x")
	if err != nil {
		t.Fatal(err)
	}
	if st.NullCount != 1 {
		t.Errorf("NullCount = %d", st.NullCount)
	}
	if st.Min.F != 1 || st.Max.F != 5 {
		t.Errorf("Min/Max = %v/%v", st.Min, st.Max)
	}
	if st.DistinctCount != 5 {
		t.Errorf("DistinctCount = %d", st.DistinctCount)
	}
	if st.Mean != 3 {
		t.Errorf("Mean = %v", st.Mean)
	}
	if st.Variance != 2 {
		t.Errorf("Variance = %v, want 2", st.Variance)
	}
	if _, err := tbl.Stats("nope"); err == nil {
		t.Error("expected error for unknown column")
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	tbl := NewTable("orders", Schema{{Name: "id", Type: TypeInt64}})
	if err := c.Add(tbl); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(tbl); err == nil {
		t.Fatal("expected duplicate error")
	}
	got, err := c.Table("orders")
	if err != nil || got != tbl {
		t.Fatalf("Table lookup: %v %v", got, err)
	}
	if _, err := c.Table("missing"); err == nil {
		t.Fatal("expected unknown-table error")
	}
	if names := c.Names(); len(names) != 1 || names[0] != "orders" {
		t.Fatalf("Names = %v", names)
	}
}

func TestSchemaHelpers(t *testing.T) {
	s := Schema{{Name: "a", Type: TypeInt64}, {Name: "b", Type: TypeString}}
	if s.ColumnIndex("b") != 1 || s.ColumnIndex("z") != -1 {
		t.Error("ColumnIndex broken")
	}
	cl := s.Clone()
	cl[0].Name = "changed"
	if s[0].Name != "a" {
		t.Error("Clone must deep copy")
	}
	if n := s.Names(); n[0] != "a" || n[1] != "b" {
		t.Errorf("Names = %v", n)
	}
}

// Property: Compare is antisymmetric and Equal implies Compare == 0 for
// same-type numeric values.
func TestValueCompareProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int64(a), Int64(b)
		if va.Compare(vb) != -vb.Compare(va) {
			return false
		}
		if va.Equal(vb) != (va.Compare(vb) == 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: GroupKey is injective over a random set of int64s (no
// collisions for distinct values).
func TestGroupKeyInjective(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := make(map[string]int64)
	for i := 0; i < 10000; i++ {
		v := rng.Int63() - rng.Int63()
		k := Int64(v).GroupKey()
		if prev, ok := seen[k]; ok && prev != v {
			t.Fatalf("GroupKey collision: %d and %d -> %q", prev, v, k)
		}
		seen[k] = v
	}
}

// Property: appending then reading any sequence of optionally-null floats
// round-trips.
func TestColumnRoundTripProperty(t *testing.T) {
	f := func(vals []float64, nullEvery uint8) bool {
		c := NewColumn(TypeFloat64)
		ne := int(nullEvery%5) + 2
		for i, v := range vals {
			var err error
			if i%ne == 0 {
				err = c.Append(NullValue(TypeFloat64))
			} else {
				err = c.Append(Float64(v))
			}
			if err != nil {
				return false
			}
		}
		for i, v := range vals {
			got := c.Value(i)
			if i%ne == 0 {
				if !got.IsNull() {
					return false
				}
			} else if got.F != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
