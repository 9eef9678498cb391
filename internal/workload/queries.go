package workload

import (
	"fmt"
	"math/rand"
)

// Template is a parameterized query with query-column-set (QCS) metadata.
// The QCS — the set of grouping and equality-filter columns — is what
// offline sample-selection systems key their stratified samples on.
type Template struct {
	// Name identifies the template.
	Name string
	// Table is the fact table the template aggregates over.
	Table string
	// QCS is the template's query column set.
	QCS []string
	// Instantiate renders one concrete SQL query.
	Instantiate func(rng *rand.Rand) string
}

// StarTemplates returns the query templates over the star schema used by
// the experiment suite: simple aggregation, selective filters, group-bys
// of varying cardinality, and joins.
func StarTemplates() []Template {
	return []Template{
		{
			Name:  "sum-revenue",
			Table: "lineitem",
			QCS:   nil,
			Instantiate: func(rng *rand.Rand) string {
				return "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue FROM lineitem"
			},
		},
		{
			Name:  "pricing-summary",
			Table: "lineitem",
			QCS:   []string{"l_returnflag", "l_linestatus"},
			Instantiate: func(rng *rand.Rand) string {
				cutoff := 2000 + rng.Intn(500)
				return fmt.Sprintf(`SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty,
					SUM(l_extendedprice) AS sum_price, AVG(l_discount) AS avg_disc, COUNT(*) AS n
					FROM lineitem WHERE l_shipdate <= %d
					GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`, cutoff)
			},
		},
		{
			Name:  "forecast-revenue",
			Table: "lineitem",
			QCS:   nil,
			Instantiate: func(rng *rand.Rand) string {
				lo := rng.Intn(2000)
				return fmt.Sprintf(`SELECT SUM(l_extendedprice * l_discount) AS revenue
					FROM lineitem WHERE l_shipdate BETWEEN %d AND %d
					AND l_discount BETWEEN 0.02 AND 0.06 AND l_quantity < 24`, lo, lo+365)
			},
		},
		{
			Name:  "shipmode-volume",
			Table: "lineitem",
			QCS:   []string{"l_shipmode"},
			Instantiate: func(rng *rand.Rand) string {
				return `SELECT l_shipmode, COUNT(*) AS n, SUM(l_extendedprice) AS total
					FROM lineitem GROUP BY l_shipmode ORDER BY l_shipmode`
			},
		},
		{
			Name:  "order-priority-join",
			Table: "lineitem",
			QCS:   []string{"o_orderpriority"},
			Instantiate: func(rng *rand.Rand) string {
				lo := rng.Intn(2000)
				return fmt.Sprintf(`SELECT o_orderpriority, COUNT(*) AS n
					FROM lineitem JOIN orders ON l_orderkey = o_orderkey
					WHERE o_orderdate BETWEEN %d AND %d
					GROUP BY o_orderpriority ORDER BY o_orderpriority`, lo, lo+120)
			},
		},
		{
			Name:  "avg-quantity",
			Table: "lineitem",
			QCS:   nil,
			Instantiate: func(rng *rand.Rand) string {
				return "SELECT AVG(l_quantity) AS aq, COUNT(*) AS n FROM lineitem"
			},
		},
		{
			Name:  "brand-revenue-join",
			Table: "lineitem",
			QCS:   []string{"p_brand"},
			Instantiate: func(rng *rand.Rand) string {
				return `SELECT p_brand, SUM(l_extendedprice) AS revenue
					FROM lineitem JOIN part ON l_partkey = p_partkey
					GROUP BY p_brand ORDER BY p_brand`
			},
		},
		{
			Name:  "selective-count",
			Table: "lineitem",
			QCS:   []string{"l_shipmode"},
			Instantiate: func(rng *rand.Rand) string {
				mode := shipModes[rng.Intn(len(shipModes))]
				return fmt.Sprintf(`SELECT COUNT(*) AS n, SUM(l_quantity) AS q
					FROM lineitem WHERE l_shipmode = '%s' AND l_quantity > 45`, mode)
			},
		},
	}
}

// EventTemplates returns templates over the skewed events table.
func EventTemplates() []Template {
	return []Template{
		{
			Name:  "group-count",
			Table: "events",
			QCS:   []string{"ev_group"},
			Instantiate: func(rng *rand.Rand) string {
				return "SELECT ev_group, COUNT(*) AS n, SUM(ev_value) AS total FROM events GROUP BY ev_group ORDER BY ev_group"
			},
		},
		{
			Name:  "global-avg",
			Table: "events",
			QCS:   nil,
			Instantiate: func(rng *rand.Rand) string {
				return "SELECT AVG(ev_value) AS m, COUNT(*) AS n FROM events"
			},
		},
		{
			Name:  "flag-sum",
			Table: "events",
			QCS:   []string{"ev_flag"},
			Instantiate: func(rng *rand.Rand) string {
				return "SELECT ev_flag, SUM(ev_value) AS total FROM events GROUP BY ev_flag ORDER BY ev_flag"
			},
		},
	}
}
