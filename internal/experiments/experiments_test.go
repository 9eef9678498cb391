package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// Shape assertions: beyond "it runs" (smoke_test.go), the key qualitative
// claims must hold even at test scale. Cells are parsed back out of the
// rendered tables, which also exercises the formatting layer.

var shapeScale = Scale{Rows: 40000, Trials: 4, Seed: 7}

func cellFloat(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tab.Rows[row][col], "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: cell [%d][%d] = %q not numeric", tab.ID, row, col, tab.Rows[row][col])
	}
	return v
}

func findCol(t *testing.T, tab *Table, name string) int {
	t.Helper()
	for i, h := range tab.Header {
		if h == name {
			return i
		}
	}
	t.Fatalf("%s: no column %q in %v", tab.ID, name, tab.Header)
	return -1
}

func run(t *testing.T, id string) *Table {
	t.Helper()
	tab, err := Run(id, shapeScale)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return tab
}

func TestE1ErrorDecreasesWithRate(t *testing.T) {
	tab := run(t, "E1")
	errCol := findCol(t, tab, "mean_rel_err")
	// Compare the first SUM row (lowest rate) with the last SUM row
	// (highest rate): error must drop substantially.
	var first, last float64
	seen := false
	for i, row := range tab.Rows {
		if row[1] == "SUM" {
			if !seen {
				first = cellFloat(t, tab, i, errCol)
				seen = true
			}
			last = cellFloat(t, tab, i, errCol)
		}
	}
	if last >= first {
		t.Errorf("E1: SUM error did not decrease with rate: %v -> %v", first, last)
	}
}

func TestE3DistinctNeverMissesGroups(t *testing.T) {
	tab := run(t, "E3")
	missCol := findCol(t, tab, "missing_groups")
	var uniformMissAtSkew, distinctMissTotal float64
	for i, row := range tab.Rows {
		miss := cellFloat(t, tab, i, missCol)
		if row[2] == "distinct" {
			distinctMissTotal += miss
		}
		if row[2] == "uniform" && row[0] != "0.00" {
			uniformMissAtSkew += miss
		}
	}
	if distinctMissTotal != 0 {
		t.Errorf("E3: distinct sampler missed groups: %v", distinctMissTotal)
	}
	if uniformMissAtSkew == 0 {
		t.Errorf("E3: uniform sampling should miss groups under skew")
	}
}

func TestE4UniformBothStarvesJoin(t *testing.T) {
	tab := run(t, "E4")
	rowsCol := findCol(t, tab, "mean_out_rows")
	// At every rate, uniform-both output rows << universe-both.
	byRate := map[string]map[string]float64{}
	for i, row := range tab.Rows {
		if byRate[row[0]] == nil {
			byRate[row[0]] = map[string]float64{}
		}
		byRate[row[0]][row[1]] = cellFloat(t, tab, i, rowsCol)
	}
	for rate, m := range byRate {
		if m["uniform-both"]*5 > m["universe-both"] {
			t.Errorf("E4 rate %s: uniform-both kept %v rows vs universe %v — expected ~p^2 starvation",
				rate, m["uniform-both"], m["universe-both"])
		}
	}
}

func TestE6StaleErrorGrows(t *testing.T) {
	tab := run(t, "E6")
	offCol := findCol(t, tab, "offline_relerr")
	first := cellFloat(t, tab, 0, offCol)
	last := cellFloat(t, tab, len(tab.Rows)-1, offCol)
	if last < first+0.05 {
		t.Errorf("E6: stale offline error did not grow: %v -> %v", first, last)
	}
	// Guarantee downgraded after updates.
	gCol := findCol(t, tab, "offline_guarantee")
	if tab.Rows[0][gCol] != "a-priori" {
		t.Errorf("E6: fresh sample guarantee = %s", tab.Rows[0][gCol])
	}
	if tab.Rows[len(tab.Rows)-1][gCol] == "a-priori" {
		t.Error("E6: stale sample still claims a-priori")
	}
}

func TestE10LadderMonotone(t *testing.T) {
	tab := run(t, "E10")
	rowsCol := findCol(t, tab, "sample_rows")
	prev := -1.0
	for i, row := range tab.Rows {
		if row[1] != "sample" {
			continue
		}
		cur := cellFloat(t, tab, i, rowsCol)
		if prev > 0 && cur < prev {
			t.Errorf("E10: tighter spec chose a smaller sample: %v after %v", cur, prev)
		}
		prev = cur
	}
	// Achieved error must respect the spec on every served row.
	specCol := findCol(t, tab, "spec_relerr")
	achCol := findCol(t, tab, "achieved_max_relerr")
	for i, row := range tab.Rows {
		if row[1] != "sample" {
			continue
		}
		if cellFloat(t, tab, i, achCol) > cellFloat(t, tab, i, specCol)/100*1.001 &&
			cellFloat(t, tab, i, achCol) > cellFloat(t, tab, i, specCol) {
			// spec column is a percentage; compare in fractions.
			spec := cellFloat(t, tab, i, specCol) / 100
			if got := cellFloat(t, tab, i, achCol); got > spec {
				t.Errorf("E10 row %d: achieved %v > spec %v", i, got, spec)
			}
		}
	}
}

func TestE11CIShrinks(t *testing.T) {
	tab := run(t, "E11")
	ciCol := findCol(t, tab, "ci_rel_halfwidth")
	first := cellFloat(t, tab, 0, ciCol)
	last := cellFloat(t, tab, len(tab.Rows)-1, ciCol)
	if last >= first/2 {
		t.Errorf("E11: CI did not shrink: %v -> %v", first, last)
	}
}

func TestE12EveryTechniqueLosesSomewhere(t *testing.T) {
	tab := run(t, "E12")
	supCol := findCol(t, tab, "supported")
	apCol := findCol(t, tab, "a_priori")
	wsCol := findCol(t, tab, "work_saved")
	preCol := findCol(t, tab, "precompute_rows")
	for i, row := range tab.Rows {
		sup := cellFloat(t, tab, i, supCol)
		ap := cellFloat(t, tab, i, apCol)
		ws := cellFloat(t, tab, i, wsCol)
		pre := cellFloat(t, tab, i, preCol)
		wins := sup >= 99 && ap > 0 && ws > 50 && pre == 0
		if wins {
			t.Errorf("E12: technique %s appears to be a silver bullet: %v", row[0], row)
		}
	}
}

func TestE13OutlierIndexWins(t *testing.T) {
	tab := run(t, "E13")
	errCol := findCol(t, tab, "mean_rel_err")
	uni := cellFloat(t, tab, 0, errCol)
	oi := cellFloat(t, tab, 1, errCol)
	if oi >= uni {
		t.Errorf("E13: outlier index (%v) should beat uniform (%v) on Pareto tails", oi, uni)
	}
}

func TestE14CoverageGrowsWithBudget(t *testing.T) {
	tab := run(t, "E14")
	covCol := findCol(t, tab, "covered_weight")
	prev := -1.0
	for i := range tab.Rows {
		cur := cellFloat(t, tab, i, covCol)
		if cur < prev {
			t.Errorf("E14: coverage decreased with budget: %v after %v", cur, prev)
		}
		prev = cur
	}
	if prev < 80 {
		t.Errorf("E14: the largest budget should cover most weight, got %v%%", prev)
	}
}

// TestE16MemoReusesTheKeptRows: with the memo emptied before every query
// or kept, the 12-query session reads the same kept rows, ~2% of the table
// per query; only the memo's lookups differ — a miss per query against one
// miss and eleven hits. An append then grows the bitmap: no miss, no copy.
func TestE16MemoReusesTheKeptRows(t *testing.T) {
	tab := run(t, "E16")
	rowsCol := findCol(t, tab, "rows_scanned")
	cold, kept := cellFloat(t, tab, 0, rowsCol), cellFloat(t, tab, 1, rowsCol)
	if perQuery := cold / 12 / float64(shapeScale.Rows); perQuery < 0.01 || perQuery > 0.03 {
		t.Errorf("E16: the online scan read %.4f of the table per query, want ~0.02", perQuery)
	}
	if kept != cold {
		t.Errorf("E16: the kept memo read %v rows, the emptied one %v; want the same kept rows", kept, cold)
	}
	for row, want := range [][3]float64{{0, 12, 0}, {11, 1, 0}, {0, 0, 1}} {
		for i, col := range []string{"memo_hits", "memo_misses", "memo_grows"} {
			if got := cellFloat(t, tab, row, findCol(t, tab, col)); got != want[i] {
				t.Errorf("E16 %q: %s = %v, want %v", tab.Rows[row][0], col, got, want[i])
			}
		}
	}
}

func TestE18NeymanWins(t *testing.T) {
	// Allocation comparisons need more Monte-Carlo power than the other
	// shape tests; sample building is cheap, so crank the trials.
	tab, err := Run("E18", Scale{Rows: 60000, Trials: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	errCol := findCol(t, tab, "mean_rel_err")
	// Rows alternate neyman/equal-cap per budget. Individual budgets are
	// noisy at test scale; the aggregate across budgets must favor Neyman.
	var ney, eq float64
	for i := 0; i+1 < len(tab.Rows); i += 2 {
		ney += cellFloat(t, tab, i, errCol)
		eq += cellFloat(t, tab, i+1, errCol)
	}
	if ney >= eq {
		t.Errorf("E18: neyman total error %v should beat equal-cap %v", ney, eq)
	}
}

func TestE19PercentileCoverage(t *testing.T) {
	tab := run(t, "E19")
	covCol := findCol(t, tab, "dkw_coverage")
	for i := range tab.Rows {
		if cellFloat(t, tab, i, covCol) < 80 {
			t.Errorf("E19 row %d: DKW coverage %v below 80%%", i, cellFloat(t, tab, i, covCol))
		}
	}
}

func TestE15ClusteredBlocksDegrade(t *testing.T) {
	tab := run(t, "E15")
	errCol := findCol(t, tab, "mean_rel_err")
	vals := map[string]float64{}
	for i, row := range tab.Rows {
		vals[row[0]+"/"+row[1]] = cellFloat(t, tab, i, errCol)
	}
	if vals["clustered/block"] < 3*vals["clustered/row"] {
		t.Errorf("E15: clustered block sampling should degrade sharply: block %v vs row %v",
			vals["clustered/block"], vals["clustered/row"])
	}
}

// TestE21ShardSweepShape: one shard reproduces the unsharded width cell
// for cell, nothing is lost at any fan-out, and stratified composition
// neither loses nor invents precision. The two non-timing columns are a
// pure function of (Rows, Seed): identical across runs and worker counts
// (E21 stays out of goldenIDs because its other two columns are wall-clock).
func TestE21ShardSweepShape(t *testing.T) {
	sweep := func(workers int) *Table {
		tab, err := Run("E21", Scale{Rows: 60000, Trials: 3, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	tab := sweep(1)
	wCol, cCol := findCol(t, tab, "rel_ci_width"), findCol(t, tab, "coverage")
	if len(tab.Rows) != 5 {
		t.Fatalf("E21: %d rows, want 5", len(tab.Rows))
	}
	for i, n := range []string{"0", "1", "2", "4", "8"} {
		if tab.Rows[i][0] != n || tab.Rows[i][cCol] != "1.0000" {
			t.Errorf("E21 row %d: shards=%s coverage=%s, want %s / 1.0000", i, tab.Rows[i][0], tab.Rows[i][cCol], n)
		}
	}
	if tab.Rows[0][wCol] != tab.Rows[1][wCol] {
		t.Errorf("E21: one shard width %s != unsharded %s", tab.Rows[1][wCol], tab.Rows[0][wCol])
	}
	if w0, w8 := cellFloat(t, tab, 0, wCol), cellFloat(t, tab, 4, wCol); w8 < 0.9*w0 || w8 > 1.1*w0 {
		t.Errorf("E21: width at 8 shards %v not within 10%% of unsharded %v", w8, w0)
	}
	for name, other := range map[string]*Table{"second run": sweep(1), "workers=4": sweep(4)} {
		for i := range tab.Rows {
			if tab.Rows[i][wCol] != other.Rows[i][wCol] || tab.Rows[i][cCol] != other.Rows[i][cCol] {
				t.Errorf("E21 row %d: %s changed width/coverage: %v vs %v", i, name, other.Rows[i], tab.Rows[i])
			}
		}
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) < 21 {
		t.Fatalf("experiments registered = %d", len(ids))
	}
	if ids[0] != "E1" || ids[len(ids)-1] != "E21" {
		t.Errorf("ordering: %v", ids)
	}
	for _, id := range ids {
		if Describe(id) == "" {
			t.Errorf("%s has no description", id)
		}
	}
	if _, err := Run("E99", SmallScale); err == nil {
		t.Error("unknown experiment must error")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("note %d", 7)
	out := tab.String()
	for _, want := range []string{"== X: demo ==", "a  bb", "1  2", "note: note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}
