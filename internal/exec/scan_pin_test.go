package exec

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/storage"
	"repro/internal/workload"
)

var updateScanPin = flag.Bool("update-scan-pin", false, "rewrite testdata/scan_pin.json")

// scanPinCase is one statement's result with every float as its bit
// pattern: a last-bit drift in the scan shows as a diff.
type scanPinCase struct {
	Name     string          `json:"name"`
	Rows     [][]string      `json:"rows"`
	Weights  []string        `json:"weights,omitempty"`
	Details  []scanPinDetail `json:"details"`
	Counters Counters        `json:"counters"`
}

type scanPinDetail struct {
	Key    string   `json:"key"`
	GroupN string   `json:"group_n"`
	Aggs   []string `json:"aggs"`
}

func bitsOf(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func pinScanResult(name string, res *Result) scanPinCase {
	c := scanPinCase{Name: name, Counters: res.Counters}
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
			if v.Typ == storage.TypeFloat64 && !v.IsNull() {
				cells[i] = bitsOf(v.F)
			}
		}
		c.Rows = append(c.Rows, cells)
	}
	for _, w := range res.Weights {
		c.Weights = append(c.Weights, bitsOf(w))
	}
	for _, d := range res.Details {
		pd := scanPinDetail{Key: d.Key, GroupN: bitsOf(d.GroupN)}
		for _, a := range d.Aggs {
			pd.Aggs = append(pd.Aggs, fmt.Sprintf("%s %s %s w=%t s=%t i=%t %s %s",
				bitsOf(a.Estimate), bitsOf(a.Variance), bitsOf(a.N),
				a.Weighted, a.Supported, a.HasInterval, bitsOf(a.Lo), bitsOf(a.Hi)))
		}
		c.Details = append(c.Details, pd)
	}
	return c
}

// scanPinCatalog is a 40k-row star schema plus a stored stratified sample
// of lineitem (hidden weight column) and a NULL-heavy table.
func scanPinCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	star, err := workload.GenerateStar(workload.Config{Seed: 1, LineitemRows: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sample.BuildStratified(star.Lineitem,
		sample.StratifiedConfig{KeyColumns: []string{"l_shipmode"}, CapPerStratum: 600, Seed: 7}, "lineitem_s")
	if err != nil {
		t.Fatal(err)
	}
	if err := star.Catalog.Add(st.Table); err != nil {
		t.Fatal(err)
	}
	nulls := storage.NewTable("nulls", storage.Schema{
		{Name: "k", Type: storage.TypeInt64},
		{Name: "x", Type: storage.TypeFloat64},
		{Name: "y", Type: storage.TypeFloat64},
	})
	rng := rand.New(rand.NewSource(13))
	rows := make([][]storage.Value, 40_000)
	for i := range rows {
		k, x, y := storage.Int64(int64(rng.Intn(12))), storage.Float64(rng.NormFloat64()*40), storage.Float64(float64(rng.Intn(5))/4)
		if rng.Intn(10) == 0 {
			k = storage.NullValue(storage.TypeInt64)
		}
		if rng.Intn(10) < 7 {
			x = storage.NullValue(storage.TypeFloat64)
		}
		if rng.Intn(6) == 0 {
			y = storage.NullValue(storage.TypeFloat64)
		}
		rows[i] = []storage.Value{k, x, y}
	}
	if err := nulls.AppendRows(rows); err != nil {
		t.Fatal(err)
	}
	if err := star.Catalog.Add(nulls); err != nil {
		t.Fatal(err)
	}
	return star.Catalog
}

// TestScanPin holds the scan's answers to the bit — every result cell,
// weight, GroupDetail field and counter of the statements the benchmark
// serves, sampled, stored-sample, ranged and NULL-heavy, joined and
// row-returning — at one and four workers. It is the exec-level twin of
// core's contract_pin.json.
func TestScanPin(t *testing.T) {
	cat := scanPinCatalog(t)
	before := columnBits(t, cat)
	type stmt struct {
		name, sql string
		window    *plan.RowRange
	}
	var stmts []stmt
	rng := rand.New(rand.NewSource(1))
	served := map[string]string{}
	for _, tpl := range workload.StarTemplates() {
		switch tpl.Name {
		case "sum-revenue", "pricing-summary", "forecast-revenue", "shipmode-volume", "avg-quantity", "selective-count":
			served[tpl.Name] = tpl.Instantiate(rng)
			stmts = append(stmts, stmt{name: tpl.Name, sql: served[tpl.Name]})
		}
	}
	const topSuppliers = `SELECT l_suppkey, COUNT(*) AS n, SUM(l_extendedprice) AS total FROM lineitem
		WHERE l_suppkey <= 500 GROUP BY l_suppkey ORDER BY l_suppkey LIMIT 10`
	stmts = append(stmts, stmt{name: "top-suppliers", sql: topSuppliers})
	for _, s := range []struct{ tag, clause string }{
		{"bernoulli5", "BERNOULLI (5)"}, {"system5", "SYSTEM (5)"}, {"bilevel20x25", "BILEVEL (20, 25)"},
	} {
		for _, name := range []string{"pricing-summary", "sum-revenue"} {
			stmts = append(stmts, stmt{name: name + "." + s.tag,
				sql: strings.Replace(served[name], "FROM lineitem", "FROM lineitem TABLESAMPLE "+s.clause, 1)})
		}
	}
	stmts = append(stmts, stmt{name: "top-suppliers.bernoulli5",
		sql: strings.Replace(topSuppliers, "FROM lineitem", "FROM lineitem TABLESAMPLE BERNOULLI (5)", 1)})
	// Many groups, every one pinned: unlimited, under a distinct sampler
	// whose strata are the groups, under one whose strata are not, and with
	// the slots that keep more than HT sums.
	allSuppliers := strings.TrimSuffix(topSuppliers, " LIMIT 10")
	stmts = append(stmts,
		stmt{name: "top-suppliers.all", sql: allSuppliers},
		stmt{name: "top-suppliers.distinct",
			sql: strings.Replace(allSuppliers, "FROM lineitem", "FROM lineitem TABLESAMPLE DISTINCT (1, 30) ON (l_suppkey)", 1)},
		stmt{name: "shipmode.distinct-suppliers", sql: `SELECT l_shipmode, COUNT(*) AS n, SUM(l_extendedprice) AS total,
			AVG(l_quantity) AS aq FROM lineitem TABLESAMPLE DISTINCT (2, 20) ON (l_suppkey)
			WHERE l_suppkey <= 500 GROUP BY l_shipmode ORDER BY l_shipmode`},
		stmt{name: "suppliers.distinct-modes", sql: `SELECT l_suppkey, COUNT(*) AS n, SUM(l_extendedprice) AS total
			FROM lineitem TABLESAMPLE DISTINCT (5, 10) ON (l_shipmode, l_returnflag)
			WHERE l_suppkey <= 300 GROUP BY l_suppkey ORDER BY l_suppkey`},
		stmt{name: "suppliers.mixed-slots", sql: `SELECT l_suppkey, COUNT(*) AS n, MIN(l_quantity) AS lo, MAX(l_extendedprice) AS hi,
			MIN(l_shipmode) AS first_mode, COUNT(DISTINCT l_shipmode) AS modes, PERCENTILE(l_extendedprice, 0.5) AS med,
			AVG(l_discount) AS ad FROM lineitem WHERE l_suppkey <= 300 GROUP BY l_suppkey ORDER BY l_suppkey`},
		stmt{name: "suppliers.mixed-slots.bernoulli5", sql: `SELECT l_suppkey, MAX(l_quantity) AS hi, COUNT(DISTINCT l_shipmode) AS modes,
			PERCENTILE(l_extendedprice, 0.9) AS p90, SUM(l_tax) AS tax FROM lineitem TABLESAMPLE BERNOULLI (5)
			GROUP BY l_suppkey ORDER BY l_suppkey`},
		stmt{name: "global.distinct-suppliers", sql: `SELECT COUNT(*) AS n, SUM(l_extendedprice) AS total
			FROM lineitem TABLESAMPLE DISTINCT (3, 15) ON (l_suppkey) WHERE l_quantity > 10`},
		stmt{name: "order-priority-join.distinct", sql: `SELECT o_orderpriority, COUNT(*) AS n, SUM(l_extendedprice) AS rev
			FROM lineitem TABLESAMPLE DISTINCT (2, 10) ON (l_suppkey) JOIN orders ON l_orderkey = o_orderkey
			GROUP BY o_orderpriority ORDER BY o_orderpriority`})
	stmts = append(stmts, stmt{name: "stored-sample",
		sql: `SELECT l_shipmode, COUNT(*) AS n, SUM(l_extendedprice) AS total, AVG(l_quantity) AS aq
			FROM lineitem_s WHERE l_discount < 0.08 GROUP BY l_shipmode ORDER BY l_shipmode`})
	order := make([]int32, 40_000)
	for i, r := range rand.New(rand.NewSource(3)).Perm(len(order)) {
		order[i] = int32(r)
	}
	stmts = append(stmts,
		stmt{name: "forecast-revenue.ranged", sql: served["forecast-revenue"], window: &plan.RowRange{Order: order, Lo: 3000, Hi: 21_500}},
		stmt{name: "shipmode-volume.ranged", sql: served["shipmode-volume"], window: &plan.RowRange{Order: order, Lo: 100, Hi: 9000}},
		stmt{name: "null-heavy", sql: `SELECT k, COUNT(x) AS c, SUM(x * y) AS sxy, AVG(x) AS ax, SUM(x / y) AS sdiv,
			COUNT(*) AS n, MIN(x) AS lo, PERCENTILE(x, 0.5) AS med
			FROM nulls WHERE y > 0.1 OR NOT (x < 5) GROUP BY k ORDER BY k`},
		stmt{name: "null-heavy.global", sql: `SELECT COUNT(x), SUM(x), AVG(x + y), COUNT(*) FROM nulls WHERE NOT (y = 0.5)`})

	// Joins, exact and at the online engine's placement (a sample of the
	// fact, the dimension whole), and row-returning plans.
	joinRng, joins := rand.New(rand.NewSource(2)), map[string]string{}
	for _, tpl := range workload.StarTemplates() {
		if strings.HasSuffix(tpl.Name, "-join") {
			joins[tpl.Name] = tpl.Instantiate(joinRng)
		}
	}
	for _, name := range []string{"order-priority-join", "brand-revenue-join"} {
		stmts = append(stmts, stmt{name: name, sql: joins[name]}, stmt{name: name + ".bernoulli5",
			sql: strings.Replace(joins[name], "FROM lineitem", "FROM lineitem TABLESAMPLE BERNOULLI (5)", 1)})
	}
	stmts = append(stmts,
		stmt{name: "universe-pair", sql: `SELECT o_orderpriority, COUNT(*) AS n, SUM(l_extendedprice) AS rev
			FROM lineitem TABLESAMPLE UNIVERSE (5) ON (l_orderkey) JOIN orders TABLESAMPLE UNIVERSE (5) ON (o_orderkey)
			ON l_orderkey = o_orderkey GROUP BY o_orderpriority ORDER BY o_orderpriority`},
		stmt{name: "join-residual", sql: `SELECT p_brand, COUNT(*) AS n, SUM(l_extendedprice) AS rev, AVG(l_discount) AS ad
			FROM lineitem JOIN part ON l_partkey = p_partkey AND l_quantity < p_size GROUP BY p_brand ORDER BY p_brand`},
		stmt{name: "join-dim-where", sql: `SELECT l_shipmode, COUNT(*) AS n, SUM(l_extendedprice * (1 - l_discount)) AS rev
			FROM lineitem JOIN part ON l_partkey = p_partkey WHERE p_size < 10 AND p_brand <> 'Brand#07' AND l_quantity > 20
			GROUP BY l_shipmode ORDER BY l_shipmode`},
		stmt{name: "join-two-level", sql: `SELECT c_mktsegment, COUNT(*) AS n, SUM(l_extendedprice) AS rev, AVG(l_quantity) AS aq
			FROM lineitem JOIN orders ON l_orderkey = o_orderkey JOIN customer ON o_custkey = c_custkey
			GROUP BY c_mktsegment ORDER BY c_mktsegment`},
		stmt{name: "brand-revenue-join.ranged", sql: joins["brand-revenue-join"], window: &plan.RowRange{Order: order, Lo: 3000, Hi: 21_500}},
		stmt{name: "rows.order-limit", sql: `SELECT l_orderkey, l_extendedprice, l_shipmode FROM lineitem
			WHERE l_quantity > 48 ORDER BY l_extendedprice DESC, l_orderkey LIMIT 20`},
		stmt{name: "rows.limit", sql: `SELECT l_orderkey, l_quantity FROM lineitem LIMIT 5`},
		stmt{name: "rows.sampled", sql: `SELECT l_orderkey, l_extendedprice FROM lineitem TABLESAMPLE BERNOULLI (5)
			WHERE l_quantity > 45 ORDER BY l_orderkey LIMIT 20`},
		stmt{name: "rows.join", sql: `SELECT l_orderkey, o_orderpriority, l_extendedprice FROM lineitem JOIN orders
			ON l_orderkey = o_orderkey WHERE l_quantity > 49 AND o_orderstatus = 'F' ORDER BY l_orderkey, l_extendedprice LIMIT 20`})

	var cases []scanPinCase
	for _, s := range stmts {
		var pinned []byte
		for _, workers := range []int{1, 4} {
			p := buildPlan(t, cat, s.sql)
			plan.Scans(p)[0].Range = s.window
			res, err := RunParallelContext(context.Background(), p, workers)
			if err != nil {
				t.Fatalf("%s W=%d: %v", s.name, workers, err)
			}
			c := pinScanResult(s.name, res)
			blob, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				pinned = blob
				cases = append(cases, c)
			} else if !bytes.Equal(blob, pinned) {
				t.Errorf("%s: W=4 differs from W=1:\n W=4: %s\n W=1: %s", s.name, blob, pinned)
			}
		}
	}
	requireColumnsUnchanged(t, cat, before)
	blob, err := json.MarshalIndent(cases, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	path := filepath.Join("testdata", "scan_pin.json")
	if *updateScanPin {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("scan pin: %v (run with -update-scan-pin to generate)", err)
	}
	if !bytes.Equal(blob, want) {
		t.Errorf("scan answers drifted from %s (first differing case: %s)", path, firstScanPinDiff(blob, want))
	}
}

// firstScanPinDiff names the first case whose pinned form differs.
func firstScanPinDiff(got, want []byte) string {
	var g, w []scanPinCase
	if json.Unmarshal(got, &g) != nil || json.Unmarshal(want, &w) != nil || len(g) != len(w) {
		return "case lists differ"
	}
	for i := range g {
		a, _ := json.Marshal(g[i])
		b, _ := json.Marshal(w[i])
		if !bytes.Equal(a, b) {
			return fmt.Sprintf("%s\n got: %s\nwant: %s", g[i].Name, a, b)
		}
	}
	return "none"
}
