package aqp

// One benchmark per reproduced experiment (E1–E12, see DESIGN.md's
// per-experiment index) plus micro-benchmarks for the substrate. The
// experiment benches run the same code as `aqpbench -exp=<id>` at a
// reduced scale and report domain metrics via b.ReportMetric; run
// `go run ./cmd/aqpbench` for the full-size tables.

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/workload"
)

func benchScale(b *testing.B) experiments.Scale {
	b.Helper()
	s := experiments.SmallScale
	s.Rows = 50_000
	s.Trials = 5
	return s
}

func runExperiment(b *testing.B, id string) {
	s := benchScale(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Run(id, s)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s: empty table", id)
		}
	}
}

// BenchmarkE1ErrorVsRate regenerates the error-vs-sampling-rate curve.
func BenchmarkE1ErrorVsRate(b *testing.B) { runExperiment(b, "E1") }

// BenchmarkE2SpeedupVsRate regenerates the work-saved/crossover table.
func BenchmarkE2SpeedupVsRate(b *testing.B) { runExperiment(b, "E2") }

// BenchmarkE3GroupCoverage regenerates uniform-vs-distinct group coverage.
func BenchmarkE3GroupCoverage(b *testing.B) { runExperiment(b, "E3") }

// BenchmarkE4JoinSampling regenerates the join-over-samples comparison.
func BenchmarkE4JoinSampling(b *testing.B) { runExperiment(b, "E4") }

// BenchmarkE5OfflineVsOnline regenerates the QCS-drift comparison.
func BenchmarkE5OfflineVsOnline(b *testing.B) { runExperiment(b, "E5") }

// BenchmarkE6Maintenance regenerates the staleness-drift table.
func BenchmarkE6Maintenance(b *testing.B) { runExperiment(b, "E6") }

// BenchmarkE7CICoverage regenerates the CI-coverage table.
func BenchmarkE7CICoverage(b *testing.B) { runExperiment(b, "E7") }

// BenchmarkE8Synopses regenerates the synopses-vs-sampling table.
func BenchmarkE8Synopses(b *testing.B) { runExperiment(b, "E8") }

// BenchmarkE9OnePass regenerates the passes-over-data table.
func BenchmarkE9OnePass(b *testing.B) { runExperiment(b, "E9") }

// BenchmarkE10ELP regenerates the error–latency-profile table.
func BenchmarkE10ELP(b *testing.B) { runExperiment(b, "E10") }

// BenchmarkE11OLA regenerates the online-aggregation convergence table.
func BenchmarkE11OLA(b *testing.B) { runExperiment(b, "E11") }

// BenchmarkE12Matrix regenerates the no-silver-bullet matrix.
func BenchmarkE12Matrix(b *testing.B) { runExperiment(b, "E12") }

// BenchmarkE13OutlierIndex regenerates the heavy-tail outlier-index table.
func BenchmarkE13OutlierIndex(b *testing.B) { runExperiment(b, "E13") }

// BenchmarkE14SampleBudget regenerates the budgeted-selection table.
func BenchmarkE14SampleBudget(b *testing.B) { runExperiment(b, "E14") }

// BenchmarkE15BlockLayout regenerates the block design-effect table.
func BenchmarkE15BlockLayout(b *testing.B) { runExperiment(b, "E15") }

// BenchmarkE16SampleReuse regenerates the Taster-style reuse table.
func BenchmarkE16SampleReuse(b *testing.B) { runExperiment(b, "E16") }

// BenchmarkE17QuerySuite regenerates the per-query engine comparison.
func BenchmarkE17QuerySuite(b *testing.B) { runExperiment(b, "E17") }

// BenchmarkE18NeymanAllocation regenerates the allocation ablation.
func BenchmarkE18NeymanAllocation(b *testing.B) { runExperiment(b, "E18") }

// BenchmarkE19Percentiles regenerates the DKW percentile table.
func BenchmarkE19Percentiles(b *testing.B) { runExperiment(b, "E19") }

// --- substrate micro-benchmarks ---

func benchStar(b *testing.B, rows int) *workload.Star {
	b.Helper()
	star, err := workload.GenerateStar(workload.Config{Seed: 1, LineitemRows: rows})
	if err != nil {
		b.Fatal(err)
	}
	return star
}

func mustPlan(b *testing.B, cat *storage.Catalog, sql string) plan.Node {
	b.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	p, err := plan.Build(stmt, cat)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// benchMorselScan measures one statement through the morsel-parallel
// executor — the path every served aggregate takes — over 250k lineitem
// rows at one and two workers.
func benchMorselScan(b *testing.B, sql string) {
	benchMorselScanEach(b, sql, func() {})
}

// benchMorselScanEach is benchMorselScan calling before ahead of every run.
func benchMorselScanEach(b *testing.B, sql string, before func()) {
	const rows = 250_000
	star := benchStar(b, rows)
	p := mustPlan(b, star.Catalog, sql)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("W=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				before()
				if _, err := exec.RunParallel(p, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rows*b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkScanStringGroupBy measures GROUP BY on a dictionary-encoded
// column: groups resolve by code, so allocations track groups, not rows.
func BenchmarkScanStringGroupBy(b *testing.B) {
	benchMorselScan(b, `SELECT l_shipmode, COUNT(*) AS n, SUM(l_extendedprice) AS total
		FROM lineitem GROUP BY l_shipmode ORDER BY l_shipmode`)
}

// BenchmarkScanStringFilter measures a string equality filter compiled to
// a code comparison.
func BenchmarkScanStringFilter(b *testing.B) {
	benchMorselScan(b, `SELECT COUNT(*) AS n, SUM(l_quantity) AS q
		FROM lineitem WHERE l_shipmode = 'RAIL' AND l_quantity > 45`)
}

// BenchmarkScanIntGroupBy measures a 500-group GROUP BY on an integer
// column, keyed by the raw int64.
func BenchmarkScanIntGroupBy(b *testing.B) {
	benchMorselScan(b, `SELECT l_suppkey, COUNT(*) AS n, SUM(l_extendedprice) AS total
		FROM lineitem WHERE l_suppkey <= 500 GROUP BY l_suppkey ORDER BY l_suppkey LIMIT 10`)
}

// BenchmarkScanSum measures a full-scan SUM of one column.
func BenchmarkScanSum(b *testing.B) {
	benchMorselScan(b, "SELECT SUM(l_extendedprice) FROM lineitem")
}

// BenchmarkScanFiltered measures a scan with a pushed-down numeric
// predicate.
func BenchmarkScanFiltered(b *testing.B) {
	benchMorselScan(b, "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_quantity < 10 AND l_discount > 0.02")
}

// BenchmarkScanArithSum measures the served sum-revenue statement: an
// arithmetic aggregate argument materialised a run at a time.
func BenchmarkScanArithSum(b *testing.B) {
	benchMorselScan(b, "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue FROM lineitem")
}

// BenchmarkScanPricingSummary measures the served pricing-summary
// statement: an integer filter, a two-column dictionary group-by and four
// aggregate slots.
func BenchmarkScanPricingSummary(b *testing.B) {
	benchMorselScan(b, `SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty,
		SUM(l_extendedprice) AS sum_price, AVG(l_discount) AS avg_disc, COUNT(*) AS n
		FROM lineitem WHERE l_shipdate <= 2250
		GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`)
}

// BenchmarkScanDistinctSampled measures the statement the online engine runs
// for pricing-summary: the distinct sampler on the GROUP BY columns, its
// strata resolved by the dictionary codes that resolve the groups. warm
// reads the tail coin's remembered bitmap, as every query after a
// process's first at the sampler's seed and rate does; cold forgets it
// before each run, so every run also flips the coin over the table.
func BenchmarkScanDistinctSampled(b *testing.B) {
	const sql = `SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty,
		SUM(l_extendedprice) AS sum_price, AVG(l_discount) AS avg_disc, COUNT(*) AS n
		FROM lineitem TABLESAMPLE DISTINCT (1, 30) ON (l_returnflag, l_linestatus) WHERE l_shipdate <= 2250
		GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`
	b.Run("warm", func(b *testing.B) { benchMorselScan(b, sql) })
	b.Run("cold", func(b *testing.B) { benchMorselScanEach(b, sql, sample.ForgetKept) })
}

// BenchmarkScanDistinctSampledIntKey measures the distinct sampler over 500
// integer strata, fewer rows each per morsel than the pass-through: every
// row waits for the ordered merge, and allocations must still track strata.
func BenchmarkScanDistinctSampledIntKey(b *testing.B) {
	benchMorselScan(b, `SELECT l_suppkey, COUNT(*) AS n, SUM(l_extendedprice) AS total
		FROM lineitem TABLESAMPLE DISTINCT (1, 30) ON (l_suppkey) WHERE l_suppkey <= 500
		GROUP BY l_suppkey ORDER BY l_suppkey LIMIT 10`)
}

// BenchmarkScanForecastRevenue measures the served forecast-revenue
// statement: three range predicates narrowing one selection in turn.
func BenchmarkScanForecastRevenue(b *testing.B) {
	benchMorselScan(b, `SELECT SUM(l_extendedprice * l_discount) AS revenue
		FROM lineitem WHERE l_shipdate BETWEEN 1000 AND 1365
		AND l_discount BETWEEN 0.02 AND 0.06 AND l_quantity < 24`)
}

// BenchmarkScanJoin measures the served brand-revenue-join statement: the
// part table built once into a key index, lineitem probing it as a stage of
// the scan, and the group key read from the build side.
func BenchmarkScanJoin(b *testing.B) {
	benchMorselScan(b, `SELECT p_brand, SUM(l_extendedprice) AS revenue
		FROM lineitem JOIN part ON l_partkey = p_partkey
		GROUP BY p_brand ORDER BY p_brand`)
}

// BenchmarkHashAggregate measures a multi-aggregate GROUP BY at one worker.
func BenchmarkHashAggregate(b *testing.B) {
	star := benchStar(b, 200_000)
	p := mustPlan(b, star.Catalog,
		`SELECT l_returnflag, l_linestatus, SUM(l_quantity), AVG(l_extendedprice), COUNT(*)
		 FROM lineitem GROUP BY l_returnflag, l_linestatus`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.RunParallel(p, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockSampledScan measures the block sampler's scan savings at
// one worker.
func BenchmarkBlockSampledScan(b *testing.B) {
	star := benchStar(b, 200_000)
	for _, ratePct := range []int{1, 10} {
		b.Run(fmt.Sprintf("rate=%d%%", ratePct), func(b *testing.B) {
			p := mustPlan(b, star.Catalog, fmt.Sprintf(
				"SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE SYSTEM (%d)", ratePct))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exec.RunParallel(p, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScanRowSampled measures the uniform row sampler's scan at one
// worker, the counterpart of BenchmarkBlockSampledScan: it reads only the
// rows its remembered decisions keep. One run before the timer decides the
// rows, as the first query at a (seed, rate) does for every later one.
func BenchmarkScanRowSampled(b *testing.B) {
	star := benchStar(b, 200_000)
	for _, ratePct := range []int{1, 10} {
		b.Run(fmt.Sprintf("rate=%d%%", ratePct), func(b *testing.B) {
			p := mustPlan(b, star.Catalog, fmt.Sprintf(
				"SELECT SUM(l_extendedprice) FROM lineitem TABLESAMPLE BERNOULLI (%d)", ratePct))
			if _, err := exec.RunParallel(p, 1); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exec.RunParallel(p, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSamplerDecide measures per-row sampler decision cost.
func BenchmarkSamplerDecide(b *testing.B) {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = storage.Int64(int64(i)).GroupKey()
	}
	block, universe, distinct := sample.NewBlock(0.01, 1), sample.NewUniverse(0.01, 7), sample.NewDistinct(0.01, 4, 1)
	samplers := []struct {
		name   string
		decide func(row int) sample.RowDecision
	}{
		{"uniform", sample.NewUniform(0.01, 1).Decide},
		{"block", func(row int) sample.RowDecision { return block.DecideBlock(row / 1024) }},
		{"universe", func(row int) sample.RowDecision { return universe.Decide(keys[row&1023]) }},
		{"distinct", func(row int) sample.RowDecision { return distinct.Decide(row, keys[row&1023]) }},
	}
	for _, sp := range samplers {
		b.Run(sp.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sp.decide(i)
			}
		})
	}
}

// BenchmarkParse measures SQL parsing throughput.
func BenchmarkParse(b *testing.B) {
	sql := `SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS q, AVG(l_extendedprice) AS p,
		COUNT(*) AS n FROM lineitem TABLESAMPLE BERNOULLI (1)
		WHERE l_shipdate <= 2000 AND l_discount BETWEEN 0.02 AND 0.06
		GROUP BY l_returnflag, l_linestatus HAVING COUNT(*) > 10
		ORDER BY q DESC LIMIT 5 WITH ERROR 5% CONFIDENCE 95%`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuantiles measures the statistical quantile functions.
func BenchmarkQuantiles(b *testing.B) {
	b.Run("normal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats.NormalQuantile(0.975)
		}
	})
	b.Run("student-t", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats.StudentTQuantile(0.975, 29)
		}
	})
	b.Run("chi-square", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stats.ChiSquareQuantile(0.95, 10)
		}
	})
}

// BenchmarkHTEstimator measures the estimator's accumulation over a
// 4096-row run in the forms the scan calls, in ns/row: a per-row Add (the
// many-group fold), AddRun at sampled weights, and the unit-weight paths an
// exact SUM/AVG and COUNT take.
func BenchmarkHTEstimator(b *testing.B) {
	const rows = 4096
	rng := rand.New(rand.NewSource(1))
	xs, ws := make([]float64, rows), make([]float64, rows)
	for i := range xs {
		xs[i], ws[i] = rng.Float64()*100, 100
	}
	for _, c := range []struct {
		name string
		fold func(*stats.HTEstimator)
	}{
		{"add", func(ht *stats.HTEstimator) {
			for i, x := range xs {
				ht.Add(x, ws[i])
			}
		}},
		{"run/weighted", func(ht *stats.HTEstimator) { ht.AddRun(xs, ws) }},
		{"run/unit", func(ht *stats.HTEstimator) { ht.AddUnitRun(xs) }},
		{"count/unit", func(ht *stats.HTEstimator) { ht.AddUnitCount(rows) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var ht stats.HTEstimator
			for i := 0; i < b.N; i++ {
				c.fold(&ht)
			}
			if ht.N() == 0 {
				b.Fatal("no rows folded")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

// BenchmarkStratifiedBuild measures offline sample construction cost —
// the precompute/maintenance bill.
func BenchmarkStratifiedBuild(b *testing.B) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: 1, Rows: 100_000, NumGroups: 64, Skew: 1.1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sample.BuildStratified(ev.Table, sample.StratifiedConfig{
			KeyColumns: []string{"ev_group"}, CapPerStratum: 256, Seed: int64(i),
		}, "bench_sample_"+strconv.Itoa(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(100_000*b.N)/b.Elapsed().Seconds(), "rows/s")
}
