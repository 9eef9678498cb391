package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"repro/internal/workload"
)

// The error contract every approximate request carries.
const (
	relError   = 0.05
	confidence = 0.95
)

// The shard layout of both scatter topologies.
const (
	shardCount = 4
	shardKey   = "l_orderkey"
	shardTable = "lineitem"
)

// query is one distinct (SQL, mode) pair of a workload's pool.
type query struct {
	Template string
	SQL      string
	Mode     string // exact | online | ola | offline
	// TruthSQL is the statement whose exact answer is the ground truth for
	// this query's confidence intervals; empty means SQL itself.
	TruthSQL string
}

func (q query) key() string { return q.Mode + "\x00" + q.SQL }

func (q query) truthSQL() string {
	if q.TruthSQL != "" {
		return q.TruthSQL
	}
	return q.SQL
}

// techniqueOf maps a request mode to the technique tag aqpd must answer
// with; anything else means the engine quietly fell back.
var techniqueOf = map[string]string{
	"exact":   "exact",
	"online":  "online-sampling",
	"ola":     "online-aggregation",
	"offline": "offline-samples",
}

// stream is one (template, mode) line of a workload's traffic mix; Share
// is its weight: a stream fills Share × slotsPerShare slots of a round,
// spread evenly over the template's literal instantiations.
type stream struct {
	Template string
	Mode     string
	Share    int
}

// workloadSpec describes one workload: its topology, the flags and set-up
// requests that arm it, and its traffic mix.
type workloadSpec struct {
	Name string
	Why  string
	// Topology is single, sharded4 or remote4.
	Topology string
	// ServerArgs are extra aqpd flags.
	ServerArgs []string
	// OfflineQCS, when set, makes set-up build stratified samples on these
	// column sets and certify them with the workload's offline queries.
	OfflineQCS [][]string
	Mix        []stream
	// ProbeOnline asks for the pool's statements once more in online mode,
	// outside the timed window, so an exact-only workload still reports the
	// accuracy its topology delivers at the stated error.
	ProbeOnline bool
}

// template is a parameterised statement: Instantiate draws its literals.
type template struct {
	Name        string
	Literals    int // distinct instantiations in the pool (1 = no parameters)
	TruthSQL    func(sql string) string
	Instantiate func(rng *rand.Rand) string
}

// templates returns the statement templates by name: the eight star-schema
// templates of internal/workload plus the dimension-table and
// high-cardinality statements only this harness uses.
func templates() map[string]template {
	out := make(map[string]template)
	literals := map[string]int{
		"pricing-summary": 8, "forecast-revenue": 8, "selective-count": 8,
		"order-priority-join": 2,
	}
	for _, t := range workload.StarTemplates() {
		n := literals[t.Name]
		if n == 0 {
			n = 1
		}
		out[t.Name] = template{Name: t.Name, Literals: n, Instantiate: t.Instantiate}
	}
	add := func(name string, n int, inst func(rng *rand.Rand) string) {
		out[name] = template{Name: name, Literals: n, Instantiate: inst}
	}
	// The many-group statement: 500 groups, so every shard ships a partial
	// several hundred times the size of a global aggregate's, while the
	// LIMIT keeps the reply small. All of a table's suppliers (rows/100)
	// would make the remote topology spend most of a window on this one
	// statement.
	out["top-suppliers"] = template{
		Name: "top-suppliers", Literals: 1,
		Instantiate: func(*rand.Rand) string {
			return `SELECT l_suppkey, COUNT(*) AS n, SUM(l_extendedprice) AS total FROM lineitem
				WHERE l_suppkey <= 500 GROUP BY l_suppkey ORDER BY l_suppkey LIMIT 10`
		},
		TruthSQL: func(sql string) string { return strings.TrimSuffix(sql, " LIMIT 10") },
	}
	add("supplier-nations", 1, func(*rand.Rand) string {
		return `SELECT s_nationkey, COUNT(*) AS n, AVG(s_acctbal) AS bal FROM supplier
			GROUP BY s_nationkey ORDER BY s_nationkey`
	})
	add("supplier-debtors", 8, func(rng *rand.Rand) string {
		return fmt.Sprintf(`SELECT COUNT(*) AS n, SUM(s_acctbal) AS bal FROM supplier
			WHERE s_acctbal < %d`, rng.Intn(4000))
	})
	add("customer-segments", 8, func(rng *rand.Rand) string {
		return fmt.Sprintf(`SELECT c_mktsegment, COUNT(*) AS n, SUM(c_acctbal) AS bal FROM customer
			WHERE c_acctbal > %d GROUP BY c_mktsegment ORDER BY c_mktsegment`, rng.Intn(5000))
	})
	add("part-brands", 8, func(rng *rand.Rand) string {
		lo := 1 + rng.Intn(30)
		return fmt.Sprintf(`SELECT p_brand, COUNT(*) AS n, AVG(p_retailprice) AS price FROM part
			WHERE p_size BETWEEN %d AND %d GROUP BY p_brand ORDER BY p_brand`, lo, lo+15)
	})
	return out
}

// workloads returns the five workloads in the order they run. The shares
// are set so that, on the latencies measured at the default size, the
// median and the 95th percentile of each mix fall inside one statement's
// latency mode and not in a gap between two, where they would jump from
// run to run: the doubled streams are the ones that hold a percentile.
func workloads() []workloadSpec {
	scatterMix := []stream{
		{"sum-revenue", "exact", 2}, {"pricing-summary", "exact", 2},
		{"forecast-revenue", "exact", 2}, {"shipmode-volume", "exact", 2},
		{"avg-quantity", "exact", 2}, {"selective-count", "exact", 2},
		{"top-suppliers", "exact", 1},
		{"sum-revenue", "online", 2}, {"pricing-summary", "online", 2},
		{"forecast-revenue", "online", 2}, {"shipmode-volume", "online", 2},
		{"avg-quantity", "online", 2}, {"selective-count", "online", 2},
		{"top-suppliers", "online", 1},
	}
	return []workloadSpec{
		{
			Name:     "exact.single",
			Why:      "single node, exact full-column scans: scan and aggregate work shows here, parse, plan and observer work should not",
			Topology: "single",
			Mix: []stream{
				{"sum-revenue", "exact", 1}, {"pricing-summary", "exact", 1},
				{"forecast-revenue", "exact", 1}, {"shipmode-volume", "exact", 2},
				{"avg-quantity", "exact", 1}, {"selective-count", "exact", 1},
			},
			ProbeOnline: true,
		},
		{
			Name:       "approx.single",
			Why:        "single node, online / OLA / offline sampling at 5% error: sampled access, estimation and sampled joins, which a scan-only speed-up can hurt",
			Topology:   "single",
			OfflineQCS: [][]string{{"l_shipmode"}, {"l_returnflag", "l_linestatus"}},
			Mix: []stream{
				{"sum-revenue", "online", 1}, {"pricing-summary", "online", 2},
				{"forecast-revenue", "online", 1}, {"shipmode-volume", "online", 1},
				{"order-priority-join", "online", 1}, {"avg-quantity", "online", 1},
				{"brand-revenue-join", "online", 1}, {"selective-count", "online", 1},
				{"sum-revenue", "ola", 3}, {"forecast-revenue", "ola", 2},
				{"avg-quantity", "ola", 3}, {"selective-count", "ola", 2},
				{"sum-revenue", "offline", 3}, {"shipmode-volume", "offline", 3},
				{"avg-quantity", "offline", 2},
			},
		},
		{
			Name:       "short.armed",
			Why:        "telemetry and workload insight on, sub-millisecond engine work: the fixed per-query cost (HTTP, JSON, parses, fingerprint, plan, admission, observers) dominates",
			Topology:   "single",
			ServerArgs: []string{"-telemetry", "-audit-fraction", "0"},
			OfflineQCS: [][]string{{"l_shipmode"}},
			Mix: []stream{
				{"sum-revenue", "offline", 1}, {"shipmode-volume", "offline", 1},
				{"avg-quantity", "offline", 1},
				{"supplier-nations", "exact", 1}, {"supplier-debtors", "exact", 1},
				{"customer-segments", "exact", 1}, {"part-brands", "exact", 1},
			},
		},
		{
			Name:     "scatter.sharded4",
			Why:      "four in-process shards, exact and online scatter-gather incl. a many-group statement: per-leg planning, scatter, partial merge and stratified CI composition",
			Topology: "sharded4",
			Mix:      scatterMix,
		},
		{
			Name:     "scatter.remote4",
			Why:      "coordinator plus four shard-server processes, same query stream as scatter.sharded4: the difference is the wire (partial encode/decode, RPC envelope, hedging)",
			Topology: "remote4",
			Mix:      scatterMix,
		},
	}
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// slotsPerShare is the most literals any template has, so one share can
// issue every instantiation once.
const slotsPerShare = 8

// seedFor derives a stream-specific seed, so pools and shuffles of
// different names are independent at one workload seed.
func seedFor(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed*1000003 + int64(h.Sum64()>>1)
}

// literalPool renders a template's fixed pool of distinct instantiations
// for the workload seed.
func literalPool(t template, seed int64) []string {
	rng := rand.New(rand.NewSource(seedFor(seed, t.Name)))
	seen := make(map[string]bool)
	var pool []string
	for tries := 0; len(pool) < t.Literals && tries < 64*t.Literals; tries++ {
		sql := strings.Join(strings.Fields(t.Instantiate(rng)), " ")
		if !seen[sql] {
			seen[sql] = true
			pool = append(pool, sql)
		}
	}
	return pool
}

// pool returns the workload's distinct queries and one unshuffled round of
// its schedule as indexes into them.
func (w workloadSpec) pool(seed int64) (queries []query, round []int) {
	tmpl := templates()
	index := make(map[string]int)
	for _, st := range w.Mix {
		t, ok := tmpl[st.Template]
		if !ok {
			panic("bench: workload " + w.Name + " names unknown template " + st.Template)
		}
		lits := literalPool(t, seed)
		for i := 0; i < st.Share*slotsPerShare; i++ {
			q := query{Template: t.Name, SQL: lits[i%len(lits)], Mode: st.Mode}
			if t.TruthSQL != nil {
				q.TruthSQL = t.TruthSQL(q.SQL)
			}
			qi, ok := index[q.key()]
			if !ok {
				qi = len(queries)
				index[q.key()] = qi
				queries = append(queries, q)
			}
			round = append(round, qi)
		}
	}
	return queries, round
}

// probes returns the accuracy-probe queries of an exact-only workload.
func (w workloadSpec) probes(queries []query) []query {
	if !w.ProbeOnline {
		return nil
	}
	var out []query
	seen := make(map[string]bool)
	for _, q := range queries {
		if !seen[q.SQL] {
			seen[q.SQL] = true
			out = append(out, query{Template: q.Template, SQL: q.SQL, Mode: "online", TruthSQL: q.TruthSQL})
		}
	}
	return out
}

// schedules returns one fixed, seeded, shuffled walk of the round per
// client; clients repeat their walk until the window closes.
func schedules(round []int, seed int64, clients int) [][]int {
	out := make([][]int, clients)
	for c := range out {
		rng := rand.New(rand.NewSource(seedFor(seed, fmt.Sprintf("client-%d", c))))
		walk := append([]int(nil), round...)
		rng.Shuffle(len(walk), func(i, j int) { walk[i], walk[j] = walk[j], walk[i] })
		out[c] = walk
	}
	return out
}
