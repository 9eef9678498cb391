package storage

import "testing"

func TestAllColumnAccessors(t *testing.T) {
	ic := &Int64Column{}
	if err := ic.Append(Int64(7)); err != nil {
		t.Fatal(err)
	}
	if ic.Len() != 1 || ic.Int(0) != 7 || ic.Value(0).I != 7 {
		t.Error("int column accessors")
	}
	fc := &Float64Column{}
	if err := fc.Append(Float64(2.5)); err != nil {
		t.Fatal(err)
	}
	if fc.Len() != 1 || fc.Float(0) != 2.5 || fc.Value(0).F != 2.5 {
		t.Error("float column accessors")
	}
	sc := &StringColumn{}
	if err := sc.Append(Str("x")); err != nil {
		t.Fatal(err)
	}
	if sc.Len() != 1 || sc.Value(0).S != "x" {
		t.Error("string column accessors")
	}
	bc := &BoolColumn{}
	if err := bc.Append(Bool(true)); err != nil {
		t.Fatal(err)
	}
	if bc.Len() != 1 || !bc.Value(0).B {
		t.Error("bool column accessors")
	}
	// Type coercion on append: float into int column truncates; bool errors.
	if err := ic.Append(Float64(3.9)); err != nil || ic.Int(1) != 3 {
		t.Error("float into int column truncates")
	}
	if err := fc.Append(Int64(4)); err != nil || fc.Float(1) != 4 {
		t.Error("int into float column widens")
	}
	if err := bc.Append(Int64(1)); err == nil {
		t.Error("int into bool column must error")
	}
	if err := sc.Append(Bool(true)); err == nil {
		t.Error("bool into string column must error")
	}
	// NULLs after non-NULLs lazily allocate the null map.
	if err := ic.Append(NullValue(TypeInt64)); err != nil {
		t.Fatal(err)
	}
	if ic.IsNull(0) || ic.IsNull(1) || !ic.IsNull(2) {
		t.Error("lazy null map")
	}
}

func TestTableAccessors(t *testing.T) {
	tbl := NewTableWithBlockSize("t", Schema{
		{Name: "a", Type: TypeInt64},
		{Name: "b", Type: TypeString},
	}, 16)
	if err := tbl.AppendRow(Int64(1), Str("x")); err != nil {
		t.Fatal(err)
	}
	if tbl.BlockSize() != 16 {
		t.Error("BlockSize")
	}
	if len(tbl.Schema()) != 2 {
		t.Error("Schema")
	}
	if tbl.Column(1).Type() != TypeString {
		t.Error("Column")
	}
	if tbl.ColumnByName("b") == nil || tbl.ColumnByName("z") != nil {
		t.Error("ColumnByName")
	}
	row := tbl.Row(0)
	if row[0].I != 1 || row[1].S != "x" {
		t.Errorf("Row = %v", row)
	}
	// Zero-block-size constructor falls back to the default.
	d := NewTableWithBlockSize("d", Schema{{Name: "x", Type: TypeInt64}}, 0)
	if d.BlockSize() != DefaultBlockSize {
		t.Error("default block size fallback")
	}
	if d.NumBlocks() != 0 {
		t.Error("empty table has no blocks")
	}
}

func TestCatalogOverlay(t *testing.T) {
	base := NewCatalog()
	fact := NewTable("fact", Schema{{Name: "x", Type: TypeInt64}})
	dim := NewTable("dim", Schema{{Name: "y", Type: TypeInt64}})
	for _, tbl := range []*Table{fact, dim} {
		if err := base.Add(tbl); err != nil {
			t.Fatal(err)
		}
	}
	sample := NewTable("fact__sample", fact.Schema())
	over := base.Overlay("fact", sample)
	if got, err := over.Table("fact"); err != nil || got != sample {
		t.Errorf("overlay resolves fact to %v (%v), want the stand-in", got, err)
	}
	if got, err := over.Table("dim"); err != nil || got != dim {
		t.Errorf("overlay resolves dim to %v (%v), want the parent's", got, err)
	}
	if got, _ := base.Table("fact"); got != fact {
		t.Error("overlay touched its parent")
	}
	if err := base.Add(fact); err == nil {
		t.Error("re-adding a registered name must error")
	}
	if names := over.Names(); len(names) != 2 || names[0] != "dim" || names[1] != "fact" {
		t.Errorf("overlay names %v, want [dim fact]", names)
	}
	alone := NewCatalog().Overlay("fact", sample)
	if _, err := alone.Table("dim"); err == nil {
		t.Error("an overlay of nothing must resolve only its own name")
	}
	if got, err := alone.Table("fact"); err != nil || got != sample {
		t.Errorf("parentless overlay resolves fact to %v (%v)", got, err)
	}
}

func TestTypeStrings(t *testing.T) {
	want := map[Type]string{
		TypeInt64: "BIGINT", TypeFloat64: "DOUBLE",
		TypeString: "VARCHAR", TypeBool: "BOOLEAN", TypeInvalid: "INVALID",
	}
	for typ, s := range want {
		if typ.String() != s {
			t.Errorf("%v.String() = %q", typ, typ.String())
		}
	}
	if !TypeInt64.Numeric() || !TypeFloat64.Numeric() || TypeString.Numeric() || TypeBool.Numeric() {
		t.Error("Numeric()")
	}
}

func TestStatsOnStringColumn(t *testing.T) {
	tbl := NewTable("t", Schema{{Name: "s", Type: TypeString}})
	for _, v := range []string{"b", "a", "c", "a"} {
		if err := tbl.AppendRow(Str(v)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := tbl.Stats("s")
	if err != nil {
		t.Fatal(err)
	}
	if st.Min.S != "a" || st.Max.S != "c" || st.DistinctCount != 3 {
		t.Errorf("string stats = %+v", st)
	}
	if st.Mean != 0 || st.Variance != 0 {
		t.Error("non-numeric columns have no moments")
	}
}

func TestBlockBoundsClamping(t *testing.T) {
	tbl := NewTableWithBlockSize("t", Schema{{Name: "x", Type: TypeInt64}}, 10)
	for i := 0; i < 5; i++ {
		if err := tbl.AppendRow(Int64(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := tbl.BlockBounds(0)
	if lo != 0 || hi != 5 {
		t.Errorf("partial block bounds = %d,%d", lo, hi)
	}
	lo, hi = tbl.BlockBounds(7)
	if lo != 5 || hi != 5 {
		t.Errorf("past-end block bounds = %d,%d", lo, hi)
	}
}
