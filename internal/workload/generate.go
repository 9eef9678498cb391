// Package workload generates deterministic synthetic datasets and query
// workloads for the experiment suite: a TPC-H-like star schema with
// tunable Zipf skew (substituting for the proprietary benchmarks used by
// the AQP literature), a single-table skewed event log, parameterized
// query templates with query-column-set (QCS) metadata for offline sample
// planning, and update streams for staleness experiments.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/storage"
)

// Config controls dataset generation.
type Config struct {
	// Seed makes generation deterministic.
	Seed int64
	// LineitemRows is the fact-table size; dimension sizes derive from it.
	LineitemRows int
	// Skew is the Zipf exponent for skewed columns (0 disables skew).
	Skew float64
	// BlockSize overrides the storage block size (0 = default).
	BlockSize int
}

// Star holds the generated star-schema catalog and its scale facts.
type Star struct {
	Catalog   *storage.Catalog
	Lineitem  *storage.Table
	Orders    *storage.Table
	Customer  *storage.Table
	Part      *storage.Table
	Supplier  *storage.Table
	NumOrders int
	rng       *rand.Rand
	cfg       Config
}

var (
	returnFlags = []string{"R", "A", "N"}
	lineStatus  = []string{"O", "F"}
	shipModes   = []string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"}
	priorities  = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	segments    = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	brands      = makeNames("Brand#", 25)
	statuses    = []string{"O", "F", "P"}
)

func makeNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%02d", prefix, i+1)
	}
	return out
}

// GenerateStar builds the star schema. Dimension sizes: orders = L/4,
// customer = orders/10, part = L/20, supplier = L/100 (all at least 8).
func GenerateStar(cfg Config) (*Star, error) {
	if cfg.LineitemRows <= 0 {
		return nil, fmt.Errorf("workload: LineitemRows must be positive")
	}
	bs := cfg.BlockSize
	if bs <= 0 {
		bs = storage.DefaultBlockSize
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &Star{Catalog: storage.NewCatalog(), rng: rng, cfg: cfg}

	nOrders := maxInt(cfg.LineitemRows/4, 8)
	nCust := maxInt(nOrders/10, 8)
	nPart := maxInt(cfg.LineitemRows/20, 8)
	nSupp := maxInt(cfg.LineitemRows/100, 8)
	s.NumOrders = nOrders

	s.Supplier = storage.NewTableWithBlockSize("supplier", storage.Schema{
		{Name: "s_suppkey", Type: storage.TypeInt64},
		{Name: "s_nationkey", Type: storage.TypeInt64},
		{Name: "s_acctbal", Type: storage.TypeFloat64},
	}, bs)
	for i := 0; i < nSupp; i++ {
		if err := s.Supplier.AppendRow(
			storage.Int64(int64(i+1)),
			storage.Int64(int64(rng.Intn(25))),
			storage.Float64(round2(rng.Float64()*10000-1000)),
		); err != nil {
			return nil, err
		}
	}

	s.Part = storage.NewTableWithBlockSize("part", storage.Schema{
		{Name: "p_partkey", Type: storage.TypeInt64},
		{Name: "p_brand", Type: storage.TypeString},
		{Name: "p_size", Type: storage.TypeInt64},
		{Name: "p_retailprice", Type: storage.TypeFloat64},
	}, bs)
	for i := 0; i < nPart; i++ {
		if err := s.Part.AppendRow(
			storage.Int64(int64(i+1)),
			storage.Str(brands[rng.Intn(len(brands))]),
			storage.Int64(int64(rng.Intn(50)+1)),
			storage.Float64(round2(900+rng.Float64()*1100)),
		); err != nil {
			return nil, err
		}
	}

	s.Customer = storage.NewTableWithBlockSize("customer", storage.Schema{
		{Name: "c_custkey", Type: storage.TypeInt64},
		{Name: "c_mktsegment", Type: storage.TypeString},
		{Name: "c_nationkey", Type: storage.TypeInt64},
		{Name: "c_acctbal", Type: storage.TypeFloat64},
	}, bs)
	for i := 0; i < nCust; i++ {
		if err := s.Customer.AppendRow(
			storage.Int64(int64(i+1)),
			storage.Str(segments[rng.Intn(len(segments))]),
			storage.Int64(int64(rng.Intn(25))),
			storage.Float64(round2(rng.Float64()*10000-1000)),
		); err != nil {
			return nil, err
		}
	}

	s.Orders = storage.NewTableWithBlockSize("orders", storage.Schema{
		{Name: "o_orderkey", Type: storage.TypeInt64},
		{Name: "o_custkey", Type: storage.TypeInt64},
		{Name: "o_orderdate", Type: storage.TypeInt64}, // days since epoch start
		{Name: "o_totalprice", Type: storage.TypeFloat64},
		{Name: "o_orderpriority", Type: storage.TypeString},
		{Name: "o_orderstatus", Type: storage.TypeString},
	}, bs)
	custPick := newKeyPicker(rng, nCust, cfg.Skew)
	for i := 0; i < nOrders; i++ {
		if err := s.Orders.AppendRow(
			storage.Int64(int64(i+1)),
			storage.Int64(custPick()),
			storage.Int64(int64(rng.Intn(2557))), // ~7 years of days
			storage.Float64(round2(1000+rng.Float64()*450000)),
			storage.Str(priorities[rng.Intn(len(priorities))]),
			storage.Str(statuses[rng.Intn(len(statuses))]),
		); err != nil {
			return nil, err
		}
	}

	s.Lineitem = storage.NewTableWithBlockSize("lineitem", storage.Schema{
		{Name: "l_orderkey", Type: storage.TypeInt64},
		{Name: "l_partkey", Type: storage.TypeInt64},
		{Name: "l_suppkey", Type: storage.TypeInt64},
		{Name: "l_quantity", Type: storage.TypeFloat64},
		{Name: "l_extendedprice", Type: storage.TypeFloat64},
		{Name: "l_discount", Type: storage.TypeFloat64},
		{Name: "l_tax", Type: storage.TypeFloat64},
		{Name: "l_shipdate", Type: storage.TypeInt64},
		{Name: "l_returnflag", Type: storage.TypeString},
		{Name: "l_linestatus", Type: storage.TypeString},
		{Name: "l_shipmode", Type: storage.TypeString},
	}, bs)
	orderPick := newKeyPicker(rng, nOrders, cfg.Skew)
	partPick := newKeyPicker(rng, nPart, cfg.Skew)
	rows := make([][]storage.Value, 0, 4096)
	for i := 0; i < cfg.LineitemRows; i++ {
		qty := float64(rng.Intn(50) + 1)
		price := round2(qty * (900 + rng.Float64()*1100))
		rows = append(rows, []storage.Value{
			storage.Int64(orderPick()),
			storage.Int64(partPick()),
			storage.Int64(int64(rng.Intn(nSupp) + 1)),
			storage.Float64(qty),
			storage.Float64(price),
			storage.Float64(round2(rng.Float64() * 0.1)),
			storage.Float64(round2(rng.Float64() * 0.08)),
			storage.Int64(int64(rng.Intn(2557))),
			storage.Str(returnFlags[rng.Intn(len(returnFlags))]),
			storage.Str(lineStatus[rng.Intn(len(lineStatus))]),
			storage.Str(shipModes[rng.Intn(len(shipModes))]),
		})
		if len(rows) == cap(rows) {
			if err := s.Lineitem.AppendRows(rows); err != nil {
				return nil, err
			}
			rows = rows[:0]
		}
	}
	if len(rows) > 0 {
		if err := s.Lineitem.AppendRows(rows); err != nil {
			return nil, err
		}
	}

	for _, t := range []*storage.Table{s.Lineitem, s.Orders, s.Customer, s.Part, s.Supplier} {
		if err := s.Catalog.Add(t); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// newKeyPicker returns a generator of keys in [1, n]: uniform when skew is
// 0, Zipf-distributed otherwise (so some keys are far hotter than others).
func newKeyPicker(rng *rand.Rand, n int, skew float64) func() int64 {
	if skew <= 0 {
		return func() int64 { return int64(rng.Intn(n) + 1) }
	}
	z := rand.NewZipf(rng, math.Max(skew, 1.001), 1, uint64(n-1))
	return func() int64 { return int64(z.Uint64()) + 1 }
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func round2(x float64) float64 { return math.Round(x*100) / 100 }

// Events is a single skewed event-log table for group-coverage and
// selectivity experiments.
type Events struct {
	Catalog *storage.Catalog
	Table   *storage.Table
	// GroupSizes is the exact per-group row count, keyed by group id.
	GroupSizes map[int64]int
	NumGroups  int
}

// EventsConfig controls event-log generation.
type EventsConfig struct {
	Seed      int64
	Rows      int
	NumGroups int
	// Skew is the Zipf exponent over groups: higher = heavier head.
	Skew float64
	// ValueDist selects the value distribution: "uniform", "exp",
	// "lognormal", or "pareto" (α=1.5 — infinite variance, the regime
	// where outlier indexing matters). Default "exp".
	ValueDist string
	BlockSize int
}

// GenerateEvents builds the skewed event log: ev_group (Zipf), ev_user,
// ev_value (per ValueDist), ev_ts, ev_flag.
func GenerateEvents(cfg EventsConfig) (*Events, error) {
	if cfg.Rows <= 0 || cfg.NumGroups <= 0 {
		return nil, fmt.Errorf("workload: Rows and NumGroups must be positive")
	}
	bs := cfg.BlockSize
	if bs <= 0 {
		bs = storage.DefaultBlockSize
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tbl := storage.NewTableWithBlockSize("events", storage.Schema{
		{Name: "ev_group", Type: storage.TypeInt64},
		{Name: "ev_user", Type: storage.TypeInt64},
		{Name: "ev_value", Type: storage.TypeFloat64},
		{Name: "ev_ts", Type: storage.TypeInt64},
		{Name: "ev_flag", Type: storage.TypeBool},
	}, bs)
	pick := newKeyPicker(rng, cfg.NumGroups, cfg.Skew)
	val := func() float64 { return rng.ExpFloat64() * 100 }
	switch cfg.ValueDist {
	case "uniform":
		val = func() float64 { return rng.Float64() * 200 }
	case "lognormal":
		val = func() float64 { return math.Exp(rng.NormFloat64()*1.0 + 3) }
	case "pareto":
		val = func() float64 {
			u := rng.Float64()
			if u < 1e-12 {
				u = 1e-12
			}
			return math.Pow(u, -1/1.5) // Pareto(α=1.5, xm=1)
		}
	}
	ev := &Events{Catalog: storage.NewCatalog(), Table: tbl,
		GroupSizes: make(map[int64]int), NumGroups: cfg.NumGroups}
	rows := make([][]storage.Value, 0, 4096)
	for i := 0; i < cfg.Rows; i++ {
		g := pick()
		ev.GroupSizes[g]++
		rows = append(rows, []storage.Value{
			storage.Int64(g),
			storage.Int64(int64(rng.Intn(cfg.Rows/10 + 1))),
			storage.Float64(val()),
			storage.Int64(int64(i)),
			storage.Bool(rng.Float64() < 0.5),
		})
		if len(rows) == cap(rows) {
			if err := tbl.AppendRows(rows); err != nil {
				return nil, err
			}
			rows = rows[:0]
		}
	}
	if len(rows) > 0 {
		if err := tbl.AppendRows(rows); err != nil {
			return nil, err
		}
	}
	if err := ev.Catalog.Add(tbl); err != nil {
		return nil, err
	}
	return ev, nil
}

// AppendShifted appends n rows to the events table whose values are
// multiplied by factor — an update stream that drifts the distribution,
// invalidating offline samples (the staleness experiment).
func (e *Events) AppendShifted(n int, factor float64, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	pick := newKeyPicker(rng, e.NumGroups, 0)
	base := e.Table.NumRows()
	rows := make([][]storage.Value, 0, n)
	for i := 0; i < n; i++ {
		g := pick()
		e.GroupSizes[g]++
		rows = append(rows, []storage.Value{
			storage.Int64(g),
			storage.Int64(int64(rng.Intn(n + 1))),
			storage.Float64(rng.ExpFloat64() * 100 * factor),
			storage.Int64(int64(base + i)),
			storage.Bool(rng.Float64() < 0.5),
		})
	}
	return e.Table.AppendRows(rows)
}
