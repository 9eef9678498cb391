package shard

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/workload"
)

func eventsTable(t *testing.T, rows int, seed int64) *storage.Table {
	t.Helper()
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: seed, Rows: rows, NumGroups: 16, Skew: 0.8, BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	return ev.Table
}

func TestParseKeyKind(t *testing.T) {
	for s, want := range map[string]KeyKind{"hash": KeyHash, "range": KeyRange, "": KeyHash} {
		got, err := ParseKeyKind(s)
		if err != nil || got != want {
			t.Fatalf("ParseKeyKind(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseKeyKind("mod"); err == nil {
		t.Fatal("ParseKeyKind accepted an unknown kind")
	}
}

func TestDeriveSeed(t *testing.T) {
	// Shard 0 is the identity: a one-shard group samples exactly like the
	// unsharded engine.
	if DeriveSeed(42, 0) != 42 {
		t.Fatalf("DeriveSeed(42, 0) = %d, want 42", DeriveSeed(42, 0))
	}
	// Other shards diverge from the base seed and from each other.
	seen := map[int64]bool{42: true}
	for id := 1; id < 64; id++ {
		s := DeriveSeed(42, id)
		if seen[s] {
			t.Fatalf("DeriveSeed(42, %d) = %d collides", id, s)
		}
		seen[s] = true
	}
	// Deterministic.
	if DeriveSeed(42, 7) != DeriveSeed(42, 7) {
		t.Fatal("DeriveSeed not deterministic")
	}
}

func TestPartitionHashRouting(t *testing.T) {
	base := eventsTable(t, 4000, 11)
	g, err := Partition(base, Key{Column: "ev_user", Kind: KeyHash, Count: 4}, fault.BreakerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Every row lands in exactly one shard.
	total := 0
	for _, sh := range g.Shards() {
		total += sh.Rows()
	}
	if total != base.NumRows() {
		t.Fatalf("shards hold %d rows, base has %d", total, base.NumRows())
	}
	// Hash routing balances within reason (4000 rows, 4 shards).
	for _, sh := range g.Shards() {
		if sh.Rows() < 500 || sh.Rows() > 1500 {
			t.Errorf("shard %d holds %d rows — hash routing badly skewed", sh.ID(), sh.Rows())
		}
	}
	// Same key value always routes to the same shard: rebuild and compare.
	g2, err := Partition(base, Key{Column: "ev_user", Kind: KeyHash, Count: 4}, fault.BreakerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range g.Shards() {
		if sh.Rows() != g2.Shards()[i].Rows() {
			t.Fatalf("routing not deterministic: shard %d %d vs %d rows", i, sh.Rows(), g2.Shards()[i].Rows())
		}
	}
}

func TestPartitionRangeRouting(t *testing.T) {
	base := eventsTable(t, 4000, 12)
	g, err := Partition(base, Key{Column: "ev_ts", Kind: KeyRange, Count: 4}, fault.BreakerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sh := range g.Shards() {
		total += sh.Rows()
	}
	if total != base.NumRows() {
		t.Fatalf("shards hold %d rows, base has %d", total, base.NumRows())
	}
	// Shard key ranges are disjoint and ordered: max(shard i) <= min(shard i+1).
	shards := g.shards
	for i := 0; i+1 < len(shards); i++ {
		_, hi, ok1 := shards[i].Bounds()
		lo, _, ok2 := shards[i+1].Bounds()
		if !ok1 || !ok2 {
			t.Fatalf("range shard %d/%d missing bounds", i, i+1)
		}
		if hi.Compare(lo) > 0 {
			t.Fatalf("range shards overlap: shard %d max %v > shard %d min %v", i, hi, i+1, lo)
		}
	}
	// Quantile cuts keep shards roughly even.
	for _, sh := range g.Shards() {
		if sh.Rows() < 500 || sh.Rows() > 1500 {
			t.Errorf("range shard %d holds %d rows — cuts badly uneven", sh.ID(), sh.Rows())
		}
	}
}

func TestPartitionSingleShardNoCopy(t *testing.T) {
	base := eventsTable(t, 1000, 13)
	g, err := Partition(base, Key{Count: 1}, fault.BreakerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumShards() != 1 {
		t.Fatalf("NumShards = %d", g.NumShards())
	}
	// The single shard references the base table itself: same pointer, so
	// execution sees the identical snapshot/morsel grid as unsharded runs.
	if g.ShardTable(0) != base {
		t.Fatal("single shard does not reference the base table directly")
	}
}

func TestPartitionErrors(t *testing.T) {
	base := eventsTable(t, 100, 14)
	if _, err := Partition(base, Key{Column: "ev_user", Count: 0}, fault.BreakerConfig{}); err == nil {
		t.Error("accepted count 0")
	}
	if _, err := Partition(base, Key{Count: 4}, fault.BreakerConfig{}); err == nil {
		t.Error("accepted multi-shard partition without key column")
	}
	if _, err := Partition(base, Key{Column: "nope", Count: 4}, fault.BreakerConfig{}); err == nil {
		t.Error("accepted unknown key column")
	}
	empty := storage.NewTable("e", base.Schema().Clone())
	if _, err := Partition(empty, Key{Column: "ev_ts", Kind: KeyRange, Count: 4}, fault.BreakerConfig{}); err == nil {
		t.Error("range-partitioned an empty table (no cut points exist)")
	}
	// Hash-partitioning an empty table is fine: rows route as they arrive.
	if _, err := Partition(empty, Key{Column: "ev_user", Kind: KeyHash, Count: 4}, fault.BreakerConfig{}); err != nil {
		t.Errorf("hash partition of empty table: %v", err)
	}
}

func TestSyncRoutesNewRows(t *testing.T) {
	base := eventsTable(t, 2000, 15)
	g, err := Partition(base, Key{Column: "ev_user", Kind: KeyHash, Count: 4}, fault.BreakerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	before := make([]int, g.NumShards())
	for i, sh := range g.Shards() {
		before[i] = sh.Rows()
	}
	// Append directly to the base (the ingest surface), then sync.
	fresh := eventsTable(t, 500, 16)
	for i := 0; i < fresh.NumRows(); i++ {
		if err := base.AppendRow(fresh.Row(i)...); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i, sh := range g.Shards() {
		moved += sh.Rows() - before[i]
	}
	if moved != 500 {
		t.Fatalf("sync routed %d rows, want 500", moved)
	}
	// Sync is idempotent.
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sh := range g.Shards() {
		total += sh.Rows()
	}
	if total != base.NumRows() {
		t.Fatalf("after second sync shards hold %d rows, base %d", total, base.NumRows())
	}
}

func TestMapRegistry(t *testing.T) {
	var nilMap *Map
	if nilMap.Get("x") != nil || nilMap.Names() != nil {
		t.Fatal("nil Map is not inert")
	}
	m := NewMap()
	base := eventsTable(t, 200, 19)
	g, err := Partition(base, Key{Column: "ev_user", Count: 2, Kind: KeyHash}, fault.BreakerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Add(g); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(g); err == nil {
		t.Fatal("duplicate Add accepted")
	}
	if m.Get("events") != g || m.Get("other") != nil {
		t.Fatal("Get lookup wrong")
	}
	sums := m.Summaries()
	if len(sums) != 1 || sums[0].Table != "events" || sums[0].Count != 2 {
		t.Fatalf("Summaries = %+v", sums)
	}
}
