package shard

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/storage"
)

// Group is a sharded view over a base table. For local groups the base
// stays the ingest surface (appends land there as before), and Sync
// routes newly appended rows to the member shards. For remote groups the
// shards are static partitions served by shard-server processes: the
// coordinator keeps the base table for planning and ground truth, and
// Sync is a no-op (remote topology changes are an operator action, not a
// query-path side effect). Every shard owns its rows, its sample seed,
// and its circuit breaker; the group owns only the routing.
type Group struct {
	name   string
	base   *storage.Table
	key    Key
	keyIdx int
	shards []Shard
	// locals is index-aligned with shards; nil entries are remote.
	locals   []*LocalShard
	remote   bool
	breakers []*fault.Breaker

	mu     sync.Mutex
	routed int             // base rows already routed to shards
	cuts   []storage.Value // range-kind upper boundaries, len Count-1
	obs    func(Event)
}

// GroupSummary is the static shape of a group, for diagnostics endpoints.
type GroupSummary struct {
	Table        string `json:"table"`
	Count        int    `json:"count"`
	Key          string `json:"key"`
	Remote       bool   `json:"remote,omitempty"`
	RowsPerShard []int  `json:"rows_per_shard"`
}

// Partition shards base by key. With key.Count == 1 the single shard
// references the base table directly — no copy, and (with the identity
// seed derivation for shard 0) execution is bit-identical to running
// unsharded. With more shards, rows are materialized into per-shard
// tables: hash routing spreads them uniformly; range routing cuts the
// current key distribution at even quantiles, so an empty base table
// cannot be range-partitioned. bcfg tunes the per-shard circuit breakers
// (zero value = library defaults).
func Partition(base *storage.Table, key Key, bcfg fault.BreakerConfig) (*Group, error) {
	if key.Count < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", key.Count)
	}
	g := &Group{name: base.Name(), base: base, key: key, keyIdx: -1}
	if key.Column != "" {
		g.keyIdx = base.Schema().ColumnIndex(key.Column)
		if g.keyIdx < 0 {
			return nil, fmt.Errorf("shard: key column %q not in table %s", key.Column, base.Name())
		}
	}
	if key.Count == 1 {
		s := NewLocalShard(0, base)
		g.shards = []Shard{s}
		g.locals = []*LocalShard{s}
		g.breakers = []*fault.Breaker{fault.NewBreaker(bcfg)}
		g.routed = base.NumRows()
		return g, nil
	}
	if g.keyIdx < 0 {
		return nil, fmt.Errorf("shard: %d shards require a key column", key.Count)
	}
	if key.Kind == KeyRange {
		cuts, err := rangeCuts(base, g.keyIdx, key.Count)
		if err != nil {
			return nil, err
		}
		g.cuts = cuts
	}
	schema := base.Schema().Clone()
	for i := 0; i < key.Count; i++ {
		t := storage.NewTableWithBlockSize(
			fmt.Sprintf("%s__shard%d", base.Name(), i), schema, base.BlockSize())
		s := NewLocalShard(i, t)
		g.shards = append(g.shards, s)
		g.locals = append(g.locals, s)
		g.breakers = append(g.breakers, fault.NewBreaker(bcfg))
	}
	if err := g.Sync(); err != nil {
		return nil, err
	}
	return g, nil
}

// AttachRemote builds a group whose shards live in shard-server processes
// at the given base URLs (one per shard, in shard-index order). The
// coordinator keeps base in its catalog for planning and exact ground
// truth; the servers must have been loaded with the matching partition of
// the same table (aqpgen -shards emits it) or scatter results will be
// honestly wrong about what they cover. Every server is probed once
// synchronously — an unreachable shard fails the attach loudly rather
// than surfacing later as a degraded first query — and then probed in the
// background at opt.ProbeInterval. Remote groups are static: Sync does
// not route new base appends across the wire.
func AttachRemote(base *storage.Table, key Key, addrs []string, opt RemoteOptions, bcfg fault.BreakerConfig) (*Group, error) {
	if key.Count < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", key.Count)
	}
	if len(addrs) != key.Count {
		return nil, fmt.Errorf("shard: %d shard addresses for %d shards", len(addrs), key.Count)
	}
	g := &Group{name: base.Name(), base: base, key: key, keyIdx: -1, remote: true}
	if key.Column != "" {
		g.keyIdx = base.Schema().ColumnIndex(key.Column)
		if g.keyIdx < 0 {
			return nil, fmt.Errorf("shard: key column %q not in table %s", key.Column, base.Name())
		}
	}
	if key.Count > 1 && g.keyIdx < 0 {
		return nil, fmt.Errorf("shard: %d shards require a key column", key.Count)
	}
	for i, addr := range addrs {
		rs := newRemoteShard(i, base.Name(), addr, opt)
		rs.onEvent = g.observe
		g.shards = append(g.shards, rs)
		g.locals = append(g.locals, nil)
		g.breakers = append(g.breakers, fault.NewBreaker(bcfg))
	}
	// Synchronous first probe with a short retry budget: shard servers
	// may still be binding their listeners.
	for _, s := range g.shards {
		rs := s.(*RemoteShard)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := fault.Retry(ctx, fault.RetryConfig{Tries: 5, Base: 20 * time.Millisecond, Max: 200 * time.Millisecond, Seed: int64(rs.id)},
			func() error { return rs.probeOnce(ctx) })
		cancel()
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("shard: remote shard %d (%s) unreachable: %w", rs.id, rs.addr, err)
		}
	}
	for _, s := range g.shards {
		s.(*RemoteShard).startProber()
	}
	return g, nil
}

// Close stops background work (remote health probers). Safe on local
// groups and safe to call twice.
func (g *Group) Close() {
	for _, s := range g.shards {
		if rs, ok := s.(*RemoteShard); ok {
			rs.Close()
		}
	}
}

// rangeCuts computes Count-1 upper boundaries at even quantiles of the
// key column's current distribution (nulls excluded — they route to
// shard 0 alongside the lowest range).
func rangeCuts(base *storage.Table, keyIdx, count int) ([]storage.Value, error) {
	snap := base.Snapshot()
	col := snap.Column(keyIdx)
	vals := make([]storage.Value, 0, snap.NumRows())
	for i := 0; i < snap.NumRows(); i++ {
		if v := col.Value(i); !v.IsNull() {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("shard: cannot range-partition %s: no non-null key values to cut", base.Name())
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].Compare(vals[j]) < 0 })
	cuts := make([]storage.Value, count-1)
	for i := 1; i < count; i++ {
		cuts[i-1] = vals[(i*len(vals))/count]
	}
	return cuts, nil
}

// route picks the shard index for a key value.
func (g *Group) route(v storage.Value) int {
	if g.key.Kind == KeyRange {
		if v.IsNull() {
			return 0
		}
		for i, cut := range g.cuts {
			if v.Compare(cut) < 0 {
				return i
			}
		}
		return len(g.shards) - 1
	}
	return hashRoute(v, len(g.shards))
}

// Sync routes base rows appended since the last Sync to their shards,
// preserving base order within each shard. It runs implicitly before
// every scatter, so queries over local groups always see the full table.
// Remote groups are static partitions and Sync is a no-op: rows appended
// to the coordinator's base copy after attach are NOT shipped across the
// wire (repartitioning is an operator action).
func (g *Group) Sync() error {
	if g.remote {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.shards) == 1 {
		// The single shard references base directly; nothing to copy.
		g.routed = g.base.NumRows()
		return nil
	}
	snap := g.base.Snapshot()
	n := snap.NumRows()
	if g.routed >= n {
		return nil
	}
	batches := make([][][]storage.Value, len(g.shards))
	for i := g.routed; i < n; i++ {
		row := snap.Row(i)
		key := row[g.keyIdx]
		dst := g.route(key)
		batches[dst] = append(batches[dst], row)
		if g.key.Kind == KeyRange {
			g.locals[dst].extendBounds(key)
		}
	}
	for i, rows := range batches {
		if len(rows) == 0 {
			continue
		}
		if err := g.locals[i].table.AppendRows(rows); err != nil {
			return fmt.Errorf("shard: sync %s shard %d: %w", g.name, i, err)
		}
	}
	g.routed = n
	return nil
}

// Name returns the base table name the group shards.
func (g *Group) Name() string { return g.name }

// Key returns the partitioning declaration.
func (g *Group) Key() Key { return g.key }

// NumShards returns the shard count.
func (g *Group) NumShards() int { return len(g.shards) }

// Shards returns the member shards in index order.
func (g *Group) Shards() []Shard {
	out := make([]Shard, len(g.shards))
	copy(out, g.shards)
	return out
}

// ShardTable returns shard i's in-process table, or nil when the shard is
// remote (its rows live in another process). Used by tooling that dumps
// or inspects local partitions.
func (g *Group) ShardTable(i int) *storage.Table {
	if i < 0 || i >= len(g.locals) || g.locals[i] == nil {
		return nil
	}
	return g.locals[i].table
}

// Rows returns the total (base) row count.
func (g *Group) Rows() int { return g.base.NumRows() }

// SetObserver installs a callback invoked with per-shard outcomes during
// scatters and with remote envelope events (retries, hedges, probe
// transitions); the server uses it for metrics and flight records.
func (g *Group) SetObserver(fn func(Event)) {
	g.mu.Lock()
	g.obs = fn
	g.mu.Unlock()
}

func (g *Group) observe(ev Event) {
	g.mu.Lock()
	fn := g.obs
	g.mu.Unlock()
	if fn != nil {
		fn(ev)
	}
}

// Health reports every shard's health, with breaker state stamped on.
func (g *Group) Health() []Health {
	out := make([]Health, len(g.shards))
	for i, s := range g.shards {
		h := s.Health()
		h.Open = g.breakers[i].State() != fault.BreakerClosed
		h.Trips = g.breakers[i].Trips()
		out[i] = h
	}
	return out
}

// Summary reports the group's static shape.
func (g *Group) Summary() GroupSummary {
	rows := make([]int, len(g.shards))
	for i, s := range g.shards {
		rows[i] = s.Rows()
	}
	return GroupSummary{Table: g.name, Count: len(g.shards), Key: g.key.String(), Remote: g.remote, RowsPerShard: rows}
}

// Map is a registry of shard groups keyed by table name. A nil *Map is a
// valid empty registry, so engines can hold one unconditionally.
type Map struct {
	mu     sync.Mutex
	groups map[string]*Group
}

// NewMap builds an empty registry.
func NewMap() *Map { return &Map{groups: map[string]*Group{}} }

// Add registers a group under its table name.
func (m *Map) Add(g *Group) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.groups[g.Name()]; ok {
		return fmt.Errorf("shard: table %s is already sharded", g.Name())
	}
	m.groups[g.Name()] = g
	return nil
}

// Get returns the group for a table, or nil (also on a nil receiver).
func (m *Map) Get(table string) *Group {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.groups[table]
}

// Names lists the sharded tables, sorted.
func (m *Map) Names() []string {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.groups))
	for n := range m.groups {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SetObserver installs the observer on every current group.
func (m *Map) SetObserver(fn func(Event)) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, g := range m.groups {
		g.SetObserver(fn)
	}
}

// Close stops background work on every group (remote health probers).
func (m *Map) Close() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, g := range m.groups {
		g.Close()
	}
}
