package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// testCfg is the harness context shared by the tests that boot servers;
// TestMain fills it in.
var testCfg config

// TestMain builds aqpd once. The remote topology re-executes this binary
// as its shard servers, so the test binary answers the -shard-child call
// itself before the testing package parses flags.
func TestMain(m *testing.M) {
	if len(os.Args) == 5 && os.Args[1] == "-shard-child" && os.Args[3] == "-rows" {
		id, err1 := strconv.Atoi(os.Args[2])
		rows, err2 := strconv.Atoi(os.Args[4])
		if err1 != nil || err2 != nil {
			os.Exit(2)
		}
		if err := runShardChild(id, rows); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(func() int {
		root, err := findRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		dir, err := os.MkdirTemp("", "bench-test-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		// 60k rows: the smallest round size at which the online engine
		// still samples lineitem (it never samples tables under 50k rows).
		testCfg = config{root: root, buildDir: dir, rows: 60_000, seed: 1, seconds: 1, setups: 1}
		if testCfg.aqpd, err = buildAqpd(root, dir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if testCfg.self, err = os.Executable(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return m.Run()
	}())
}

func TestPercentileRule(t *testing.T) {
	sorted := make([]float64, 200)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentile(sorted, 50); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
	if got := percentile(sorted, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	// p95 needs ten samples beyond it: exactly 200 samples.
	for _, c := range []struct {
		n      int
		beyond int
		best   float64
	}{
		{19, 0, 50}, {100, 5, 90}, {199, 9, 90}, {200, 10, 95}, {999, 49, 95}, {1000, 50, 99}, {10000, 500, 99.9},
	} {
		if got := samplesBeyond(c.n, 95); got != c.beyond {
			t.Errorf("samplesBeyond(%d, 95) = %d, want %d", c.n, got, c.beyond)
		}
		if got := highestPercentile(c.n); got != c.best {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.best)
		}
	}
}

// TestQuartileSpread pins the spread to Python's
// statistics.quantiles(v, n=4), which the acceptance check uses.
func TestQuartileSpread(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{13, 10, 12, 11}, (12.75 - 10.25) / 11.5},
		{[]float64{5, 7}, (7.5 - 4.5) / 6}, // Python extrapolates beyond two points
		{[]float64{4}, 0},
	} {
		if got := quartileSpread(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestScheduleDeterminism(t *testing.T) {
	for _, w := range workloads() {
		q1, r1 := w.pool(7)
		q2, r2 := w.pool(7)
		if !reflect.DeepEqual(q1, q2) || !reflect.DeepEqual(r1, r2) {
			t.Errorf("%s: pool differs between two calls at one seed", w.Name)
		}
		if !reflect.DeepEqual(schedules(r1, 7, clientCount), schedules(r2, 7, clientCount)) {
			t.Errorf("%s: schedule differs between two calls at one seed", w.Name)
		}
		q3, r3 := w.pool(8)
		if reflect.DeepEqual(q1, q3) {
			t.Errorf("%s: seeds 7 and 8 draw the same literals", w.Name)
		}
		if reflect.DeepEqual(schedules(r1, 7, clientCount), schedules(r3, 8, clientCount)) {
			t.Errorf("%s: seeds 7 and 8 give the same schedule", w.Name)
		}
		walks := schedules(r1, 7, clientCount)
		if reflect.DeepEqual(walks[0], walks[1]) {
			t.Errorf("%s: both clients walk the same order", w.Name)
		}
		seen := make(map[int]int)
		for _, qi := range walks[0] {
			seen[qi]++
		}
		if len(seen) != len(q1) {
			t.Errorf("%s: a walk reaches %d of %d queries", w.Name, len(seen), len(q1))
		}
		for _, q := range q1 {
			if strings.ContainsAny(q.SQL, "\n\t") {
				t.Errorf("%s: statement not on one line: %q", w.Name, q.SQL)
			}
		}
	}
	sharded, _ := findWorkload("scatter.sharded4")
	remote, _ := findWorkload("scatter.remote4")
	qs, rs := sharded.pool(3)
	qr, rr := remote.pool(3)
	if !reflect.DeepEqual(qs, qr) || !reflect.DeepEqual(rs, rr) {
		t.Error("the two scatter workloads must issue the identical query stream")
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "query", Start: 10 * ms, End: 90 * ms},
		{ID: 3, Parent: 2, Name: "engine online", Start: 10 * ms, End: 88 * ms},
		{ID: 4, Parent: 3, Name: "plan", Start: 10 * ms, End: 12 * ms},
		{ID: 5, Parent: 3, Name: "scatter lineitem (4 shards)", Start: 12 * ms, End: 72 * ms},
		// Two legs overlap; one spills past its parent.
		{ID: 6, Parent: 5, Name: "shard 0 (10 rows)", Start: 12 * ms, End: 52 * ms},
		{ID: 7, Parent: 5, Name: "shard 1 (10 rows)", Start: 32 * ms, End: 80 * ms},
		{ID: 8, Parent: 6, Name: "Scan lineitem__shard0", Start: 13 * ms, End: 43 * ms},
		{ID: 9, Parent: 3, Name: "estimate", Start: 80 * ms, End: 85 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 20 * time.Millisecond, // 100 − query's 80
		2: 2 * time.Millisecond,  // 80 − engine's 78
		3: 11 * time.Millisecond, // 78 − plan 2 − scatter 60 − estimate 5
		4: 2 * time.Millisecond,
		5: 0,                     // legs cover [12,72] entirely once clipped
		6: 10 * time.Millisecond, // 40 − scan's 30
		7: 48 * time.Millisecond,
		8: 30 * time.Millisecond,
		9: 5 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d (%s) = %v, want %v", id, spans[id-1].Name, self[id], w)
		}
	}
	byCat := selfByCategory(spans, "query")
	wantCat := map[string]time.Duration{
		"query": 2 * time.Millisecond, "engine": 11 * time.Millisecond, "plan": 2 * time.Millisecond,
		"scatter": 0, "shard": 58 * time.Millisecond, "op": 30 * time.Millisecond, "estimate": 5 * time.Millisecond,
	}
	for cat, w := range wantCat {
		if byCat[cat] != w {
			t.Errorf("category %s self time = %v, want %v", cat, byCat[cat], w)
		}
	}
	if _, ok := byCat["request"]; ok || len(byCat) != len(wantCat) {
		t.Errorf("categories outside the query tree leaked in: %v", byCat)
	}
}

func TestCompareVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{100, 140, 70, 100, 150, 60, 100, 130, 80, 100}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", base, "lower", "ok"},
		{"latency +5%", scale(1.05), "lower", "ok"},
		{"latency +20%", scale(1.20), "lower", "regressed"},
		{"latency −20%", scale(0.80), "lower", "ok"},
		{"throughput −20%", scale(0.80), "higher", "regressed"},
		{"throughput +20%", scale(1.20), "higher", "ok"},
		{"spread wider than bound", noisy, "lower", "unresolved"},
	} {
		if _, got := verdict(base, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestManifestMatchesHarness keeps BENCHMARK.json and the harness telling
// the same story about workloads and their reasons.
func TestManifestMatchesHarness(t *testing.T) {
	man, err := loadManifest(testCfg.root)
	if err != nil {
		t.Fatal(err)
	}
	specs := workloads()
	if len(man.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(man.Workloads), len(specs))
	}
	for i, w := range specs {
		if man.Workloads[i].Name != w.Name || man.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), harness %q (%q)",
				i, man.Workloads[i].Name, man.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range man.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("BENCHMARK.json lacks setup_s [s, lower]")
	}
}

// aqpdProcesses lists running processes started from the test's own aqpd
// build or as this binary's shard children.
func aqpdProcesses(t *testing.T) []string {
	t.Helper()
	entries, err := filepath.Glob("/proc/[0-9]*/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, path := range entries {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // gone between glob and read
		}
		args := strings.Split(string(bytes.TrimRight(data, "\x00")), "\x00")
		if filepath.Dir(path) == fmt.Sprintf("/proc/%d", os.Getpid()) {
			continue
		}
		if args[0] == testCfg.aqpd || (args[0] == testCfg.self && len(args) > 1 && args[1] == "-shard-child") {
			out = append(out, strings.Join(args, " "))
		}
	}
	return out
}

// TestNoOrphansOnFailure boots topologies whose set-up fails after the
// servers are up, and checks that no child process outlives the error.
func TestNoOrphansOnFailure(t *testing.T) {
	if _, err := os.Stat("/proc/self/cmdline"); err != nil {
		t.Skip("needs /proc")
	}
	for _, name := range []string{"approx.single", "scatter.remote4"} {
		w, _ := findWorkload(name)
		// A sample build on a column the table lacks fails with the
		// coordinator (and, remotely, four shard servers) already running.
		w.OfflineQCS = [][]string{{"no_such_column"}}
		if _, err := boot(testCfg, w, nil); err == nil {
			t.Fatalf("%s: boot succeeded with an impossible sample build", name)
		}
		if left := aqpdProcesses(t); len(left) > 0 {
			t.Errorf("%s: processes left after a failed boot: %v", name, left)
		}
		live.mu.Lock()
		n := len(live.procs)
		live.mu.Unlock()
		if n != 0 {
			t.Errorf("%s: %d processes still registered as live", name, n)
		}
	}
}

// TestSmokeAllWorkloads runs both passes of all five workloads at a small
// size: every answer must check out, and the metrics printed must be
// exactly the ones BENCHMARK.json names.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 10 topologies")
	}
	man, err := loadManifest(testCfg.root)
	if err != nil {
		t.Fatal(err)
	}
	names := func(ms []manifestMetric) map[string]string {
		out := make(map[string]string)
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	want := []map[string]string{names(man.EndToEnd), names(man.PerLayer)}
	for _, w := range workloads() {
		for pass := 0; pass <= 1; pass++ {
			rec, err := runWorkload(testCfg, w, pass)
			if err != nil {
				t.Fatalf("%s pass %d: %v", w.Name, pass, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s pass %d: correct=%v attempted=%d failed=%d", w.Name, pass, rec.Correct, rec.Attempted, rec.Failed)
			}
			got := make(map[string]string)
			for name, m := range rec.Metrics {
				got[name] = m.Unit
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s pass %d: %s = %v", w.Name, pass, name, m.Value)
				}
				if pass == 0 && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
				}
			}
			if !reflect.DeepEqual(got, want[pass]) {
				t.Errorf("%s pass %d: metrics and units differ from BENCHMARK.json\n got: %v\nwant: %v", w.Name, pass, got, want[pass])
			}
		}
		if left := aqpdProcesses(t); len(left) > 0 {
			t.Fatalf("%s: processes left running: %v", w.Name, left)
		}
	}
}
