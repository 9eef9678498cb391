package shard

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/workload"
)

// starLineitem generates the star schema's lineitem at the given size.
func starLineitem(t *testing.T, rows int) *storage.Table {
	t.Helper()
	s, err := workload.GenerateStar(workload.Config{Seed: 7, LineitemRows: rows, Skew: 0.5, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	return s.Lineitem
}

// rowOracle partitions base's rows [from, n) the way Sync did before it
// gathered column by column: one boxed row per base row, routed by its
// key, appended to its shard's table in one AppendRows per shard, and
// each routed key folded into that shard's bounds on its own.
type rowOracle struct {
	tables []*storage.Table
	bounds []*LocalShard
	routed int
}

func newRowOracle(g *Group) *rowOracle {
	o := &rowOracle{}
	for i := range g.shards {
		t := storage.NewTableWithBlockSize(fmt.Sprintf("oracle%d", i), g.base.Schema().Clone(), g.base.BlockSize())
		o.tables = append(o.tables, t)
		o.bounds = append(o.bounds, &LocalShard{})
	}
	return o
}

func (o *rowOracle) sync(t *testing.T, g *Group) {
	t.Helper()
	snap := g.base.Snapshot()
	batches := make([][][]storage.Value, len(o.tables))
	for i := o.routed; i < snap.NumRows(); i++ {
		row := snap.Row(i)
		key := row[g.keyIdx]
		dst := g.route(key)
		batches[dst] = append(batches[dst], row)
		if g.key.Kind == KeyRange && !key.IsNull() {
			b := o.bounds[dst]
			if !b.hasBounds {
				b.minKey, b.maxKey, b.hasBounds = key, key, true
			} else {
				if key.Compare(b.minKey) < 0 {
					b.minKey = key
				}
				if key.Compare(b.maxKey) > 0 {
					b.maxKey = key
				}
			}
		}
	}
	for i, rows := range batches {
		if len(rows) == 0 {
			continue
		}
		if err := o.tables[i].AppendRows(rows); err != nil {
			t.Fatal(err)
		}
	}
	o.routed = snap.NumRows()
}

// check compares every shard of g with the oracle, column by column: the
// typed values to the bit, NULL marks, string codes (so dictionary order)
// and the values the codes decode to, row counts, versions and bounds.
func (o *rowOracle) check(t *testing.T, g *Group, what string) {
	t.Helper()
	for i, want := range o.tables {
		got := g.ShardTable(i)
		if got.NumRows() != want.NumRows() || got.Version() != want.Version() {
			t.Fatalf("%s shard %d: rows %d version %d, oracle rows %d version %d",
				what, i, got.NumRows(), got.Version(), want.NumRows(), want.Version())
		}
		for c, def := range got.Schema() {
			gc, wc := got.Column(c), want.Column(c)
			for r := 0; r < got.NumRows(); r++ {
				if gc.IsNull(r) != wc.IsNull(r) {
					t.Fatalf("%s shard %d %s row %d: NULL %v, oracle %v", what, i, def.Name, r, gc.IsNull(r), wc.IsNull(r))
				}
			}
			switch gc := gc.(type) {
			case *storage.Int64Column:
				wc := wc.(*storage.Int64Column)
				for r, x := range gc.Ints() {
					if x != wc.Int(r) {
						t.Fatalf("%s shard %d %s row %d: %d, oracle %d", what, i, def.Name, r, x, wc.Int(r))
					}
				}
				if (gc.Nulls() == nil) != (wc.Nulls() == nil) {
					t.Fatalf("%s shard %d %s: NULL marks materialized differently", what, i, def.Name)
				}
			case *storage.Float64Column:
				wc := wc.(*storage.Float64Column)
				for r, x := range gc.Floats() {
					if math.Float64bits(x) != math.Float64bits(wc.Float(r)) {
						t.Fatalf("%s shard %d %s row %d: %v, oracle %v", what, i, def.Name, r, x, wc.Float(r))
					}
				}
				if (gc.Nulls() == nil) != (wc.Nulls() == nil) {
					t.Fatalf("%s shard %d %s: NULL marks materialized differently", what, i, def.Name)
				}
			case *storage.StringColumn:
				wc := wc.(*storage.StringColumn)
				if gc.NumCodes() != wc.NumCodes() {
					t.Fatalf("%s shard %d %s: %d codes, oracle %d", what, i, def.Name, gc.NumCodes(), wc.NumCodes())
				}
				for r, code := range gc.Codes() {
					if code != wc.Code(r) || gc.RowKey(r) != wc.RowKey(r) {
						t.Fatalf("%s shard %d %s row %d: code %d %q, oracle %d %q",
							what, i, def.Name, r, code, gc.RowKey(r), wc.Code(r), wc.RowKey(r))
					}
				}
			default:
				t.Fatalf("%s: column %s of unexpected type %T", what, def.Name, gc)
			}
		}
		lo, hi, ok := g.locals[i].Bounds()
		wlo, whi, wok := o.bounds[i].Bounds()
		if ok != wok || lo != wlo || hi != whi {
			t.Fatalf("%s shard %d: bounds [%v, %v] %v, oracle [%v, %v] %v", what, i, lo, hi, ok, wlo, whi, wok)
		}
	}
}

// appendHostile appends rows copied from base's first rows, varied: a NULL
// key every seventh row (it routes to shard 0), NULLs in other columns, a
// string no shard has seen, and keys past the range cuts on both sides.
func appendHostile(base *storage.Table, n int) error {
	snap := base.Snapshot()
	rows := make([][]storage.Value, n)
	for i := range rows {
		row := snap.Row(i)
		switch i % 7 {
		case 0:
			row[0] = storage.NullValue(storage.TypeInt64)
		case 1:
			row[3] = storage.NullValue(storage.TypeFloat64)
			row[10] = storage.Str("HOVERCRAFT")
		case 2:
			row[0] = storage.Int64(-int64(i))
			row[9] = storage.NullValue(storage.TypeString)
		case 3:
			row[0] = storage.Int64(1 << 40)
			row[4] = storage.Float64(math.Copysign(0, -1))
		}
		rows[i] = row
	}
	return base.AppendRows(rows)
}

// TestPartitionMatchesRowPath pins the column-wise Sync to the row path it
// replaced: a 20k-row lineitem in 4 hash and 3 range shards, then a second
// Sync of appended rows with NULL keys, NULL cells and a new string, must
// leave every shard bit-identical to the oracle, bounds included.
func TestPartitionMatchesRowPath(t *testing.T) {
	for _, key := range []Key{
		{Column: "l_orderkey", Kind: KeyHash, Count: 4},
		{Column: "l_orderkey", Kind: KeyRange, Count: 3},
	} {
		base := starLineitem(t, 20000)
		g, err := Partition(base, key, fault.BreakerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		o := newRowOracle(g)
		o.sync(t, g)
		o.check(t, g, key.String()+" partition")

		if err := appendHostile(base, 700); err != nil {
			t.Fatal(err)
		}
		if err := g.Sync(); err != nil {
			t.Fatal(err)
		}
		o.sync(t, g)
		o.check(t, g, key.String()+" second sync")
	}
}

// TestRangeCutsMatchBoxedSort pins the index sort behind range cuts to the
// sort of boxed keys it replaced: the same Value.Compare order, so the same
// permutation and the same cuts, on integers past 2^53 (distinct keys that
// compare equal), floats with NaN, infinities and -0, strings, and NULLs.
func TestRangeCutsMatchBoxedSort(t *testing.T) {
	tbl := storage.NewTable("k", storage.Schema{
		{Name: "i", Type: storage.TypeInt64},
		{Name: "f", Type: storage.TypeFloat64},
		{Name: "s", Type: storage.TypeString},
	})
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	rows := make([][]storage.Value, 3000)
	for r := range rows {
		h := int64(hashRoute(storage.Int64(int64(r)), 1<<20))
		rows[r] = []storage.Value{
			storage.Int64(1<<53 + h%16),
			storage.Float64(float64(h%100) / 4),
			storage.Str(fmt.Sprintf("k%03d", h%500)),
		}
		if r%11 == 0 {
			rows[r][1] = storage.Float64(special[(r/11)%len(special)])
		}
		if r%13 == 0 {
			rows[r][r%3] = storage.NullValue(tbl.Schema()[r%3].Type)
		}
	}
	if err := tbl.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	snap := tbl.Snapshot()
	for c := range tbl.Schema() {
		var vals []storage.Value
		for r := range snap.NumRows() {
			if v := snap.Column(c).Value(r); !v.IsNull() {
				vals = append(vals, v)
			}
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i].Compare(vals[j]) < 0 })
		for _, count := range []int{2, 3, 7} {
			cuts, err := rangeCuts(tbl, c, count)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < count; i++ {
				if got, want := fmt.Sprintf("%#v", cuts[i-1]), fmt.Sprintf("%#v", vals[(i*len(vals))/count]); got != want {
					t.Errorf("column %d, %d shards: cut %d = %s, boxed sort gives %s", c, count, i-1, got, want)
				}
			}
		}
	}
}

// TestSyncWhileBaseGrows races Sync, which gathers from a snapshot of the
// base, against a writer appending to the base. Once the writer is done
// and a last Sync ran, the shards hold exactly what the row path routes.
func TestSyncWhileBaseGrows(t *testing.T) {
	base := starLineitem(t, 4000)
	g, err := Partition(base, Key{Column: "l_orderkey", Kind: KeyRange, Count: 3}, fault.BreakerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 20 {
			if err := appendHostile(base, 50); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for range 50 {
		if err := g.Sync(); err != nil {
			t.Error(err)
			break
		}
		for i := range g.NumShards() {
			g.locals[i].Bounds()
		}
	}
	wg.Wait()
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := g.Summary().RowsPerShard, base.NumRows(); sum(got) != want {
		t.Fatalf("shards hold %v rows, base %d", got, want)
	}
	o := newRowOracle(g)
	o.sync(t, g)
	for i, want := range o.tables {
		got := g.ShardTable(i)
		for r := range got.NumRows() {
			if fmt.Sprint(got.Row(r)) != fmt.Sprint(want.Row(r)) {
				t.Fatalf("shard %d row %d: %v, row path %v", i, r, got.Row(r), want.Row(r))
			}
		}
	}
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// TestPartitionAllocations guards what partitioning allocates: the shards'
// own columns plus routing scratch, at most twice the base table's column
// bytes, for a hash key and for a range key, whose cuts sort the key
// column. Copying through boxed rows (a 56-byte Value per cell) cost about
// ten times, and sorting boxed range keys a further 56 bytes per row. Under
// the race detector slices.Grow also allocates a zeroed array of what it
// grows by, so there the ratio is only logged.
func TestPartitionAllocations(t *testing.T) {
	base := starLineitem(t, 20000)
	var colBytes int
	for _, def := range base.Schema() {
		switch def.Type {
		case storage.TypeString:
			colBytes += 4 * base.NumRows()
		case storage.TypeBool:
			colBytes += base.NumRows()
		default:
			colBytes += 8 * base.NumRows()
		}
	}
	for _, kind := range []KeyKind{KeyHash, KeyRange} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		g, err := Partition(base, Key{Column: "l_orderkey", Kind: kind, Count: 4}, fault.BreakerConfig{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(colBytes)
		t.Logf("%s Partition allocated %.2f× the table's column bytes", kind, ratio)
		if ratio > 2 && !raceEnabled {
			t.Errorf("%s Partition into %d shards allocated %.2f× the table's %d column bytes, want at most 2×",
				kind, g.NumShards(), ratio, colBytes)
		}
	}
}
