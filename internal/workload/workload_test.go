package workload

import (
	"math/rand"
	"testing"

	"repro/internal/sqlparse"
)

func TestGenerateStarDeterministic(t *testing.T) {
	a, err := GenerateStar(Config{Seed: 1, LineitemRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateStar(Config{Seed: 1, LineitemRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if a.Lineitem.NumRows() != 2000 || b.Lineitem.NumRows() != 2000 {
		t.Fatal("row counts")
	}
	// Same seed, same data.
	for i := 0; i < 100; i++ {
		ra, rb := a.Lineitem.Row(i), b.Lineitem.Row(i)
		for j := range ra {
			if !ra[j].Equal(rb[j]) {
				t.Fatalf("row %d col %d differs: %v vs %v", i, j, ra[j], rb[j])
			}
		}
	}
	// All five tables registered.
	if got := len(a.Catalog.Names()); got != 5 {
		t.Fatalf("tables = %d", got)
	}
}

func TestGenerateStarSizes(t *testing.T) {
	s, err := GenerateStar(Config{Seed: 3, LineitemRows: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if s.Orders.NumRows() != 2500 {
		t.Errorf("orders = %d", s.Orders.NumRows())
	}
	if s.Customer.NumRows() != 250 {
		t.Errorf("customer = %d", s.Customer.NumRows())
	}
	if s.Part.NumRows() != 500 || s.Supplier.NumRows() != 100 {
		t.Errorf("part/supplier = %d/%d", s.Part.NumRows(), s.Supplier.NumRows())
	}
	if _, err := GenerateStar(Config{Seed: 1}); err == nil {
		t.Error("zero rows must error")
	}
}

func TestForeignKeysInRange(t *testing.T) {
	s, err := GenerateStar(Config{Seed: 4, LineitemRows: 5000, Skew: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	okIdx := s.Lineitem.Schema().ColumnIndex("l_orderkey")
	n := int64(s.Orders.NumRows())
	for i := 0; i < s.Lineitem.NumRows(); i++ {
		k := s.Lineitem.Column(okIdx).Value(i).I
		if k < 1 || k > n {
			t.Fatalf("l_orderkey %d out of [1,%d]", k, n)
		}
	}
}

func TestGenerateEventsSkew(t *testing.T) {
	uniform, err := GenerateEvents(EventsConfig{Seed: 5, Rows: 20000, NumGroups: 10})
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := GenerateEvents(EventsConfig{Seed: 5, Rows: 20000, NumGroups: 10, Skew: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	maxOf := func(gs map[int64]int) int {
		m := 0
		for _, n := range gs {
			if n > m {
				m = n
			}
		}
		return m
	}
	if maxOf(skewed.GroupSizes) <= maxOf(uniform.GroupSizes) {
		t.Error("skewed generation should concentrate mass in hot groups")
	}
	var total int
	for _, n := range uniform.GroupSizes {
		total += n
	}
	if total != 20000 {
		t.Errorf("group sizes sum to %d", total)
	}
}

func TestEventsValueDists(t *testing.T) {
	for _, dist := range []string{"uniform", "exp", "lognormal"} {
		ev, err := GenerateEvents(EventsConfig{Seed: 1, Rows: 500, NumGroups: 5, ValueDist: dist})
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		if ev.Table.NumRows() != 500 {
			t.Fatalf("%s: rows = %d", dist, ev.Table.NumRows())
		}
	}
	if _, err := GenerateEvents(EventsConfig{Rows: 0, NumGroups: 5}); err == nil {
		t.Error("zero rows must error")
	}
}

func TestAppendShifted(t *testing.T) {
	ev, err := GenerateEvents(EventsConfig{Seed: 9, Rows: 1000, NumGroups: 5})
	if err != nil {
		t.Fatal(err)
	}
	v0 := ev.Table.Version()
	if err := ev.AppendShifted(500, 3, 42); err != nil {
		t.Fatal(err)
	}
	if ev.Table.NumRows() != 1500 {
		t.Errorf("rows = %d", ev.Table.NumRows())
	}
	if ev.Table.Version() == v0 {
		t.Error("version must bump on append")
	}
}

func TestTemplatesParse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tpl := range append(StarTemplates(), EventTemplates()...) {
		for i := 0; i < 3; i++ {
			sql := tpl.Instantiate(rng)
			if _, err := sqlparse.Parse(sql); err != nil {
				t.Errorf("template %s instance %d: %v\n%s", tpl.Name, i, err, sql)
			}
		}
	}
}

func TestTemplatesRunOnStar(t *testing.T) {
	s, err := GenerateStar(Config{Seed: 6, LineitemRows: 3000})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, tpl := range StarTemplates() {
		sql := tpl.Instantiate(rng)
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", tpl.Name, err)
		}
		if stmt.From.Name != tpl.Table {
			t.Errorf("%s: table mismatch", tpl.Name)
		}
		_ = s
	}
}
