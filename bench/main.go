// Command bench is the repo benchmark: it builds aqpd, boots it in each
// topology as child processes, drives it with closed-loop clients, checks
// every answer, and reports end-to-end and per-layer metrics by name.
//
//	go run -C bench .                                   # all five workloads, both passes
//	go run -C bench . --workload exact.single --seed 3 --seconds 10 --trace 0
//	go run -C bench . -compare a.json b.json
//
// BENCHMARK.json at the repo root names the workloads and metrics;
// bench/README.md says what each is for.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// defaultRows is the fact-table size of every workload. 1M rows (the size
// aqpd's docs quote) would leave a ten-second window too few exact scans
// for a p95, and four shard servers too long to set up three times a run.
const defaultRows = 250_000

// setupRepeats is how many times a run boots its topology; setup_s is the
// median, and the last boot serves the run.
const setupRepeats = 3

// config is the fixed context of one invocation.
type config struct {
	root     string // checkout root (holds go.mod, cmd/, BENCHMARK.json)
	buildDir string // .bench_build under root: binaries, result and span files
	aqpd     string // built aqpd binary
	self     string // this binary, re-executed as a shard server
	rows     int
	seed     int64
	seconds  float64
	setups   int
	traceOut string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports; its JSON form is the
// last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is a result with its identity, as kept in an -out file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	// Samples is the number of latencies behind p50_ms and p95_ms.
	Samples int `json:"samples"`
	result
}

// environment is recorded in every result file.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Rows       int     `json:"rows"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds"`
}

type resultFile struct {
	Env  environment `json:"env"`
	Runs []runRecord `json:"runs"`
}

func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// findRoot locates the checkout root from the working directory, which is
// bench/ under `go run -C bench .` and the root itself under `go test`'s
// parent or a direct run of the built binary.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "bench", "go.mod")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "cmd", "aqpd")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no checkout root (bench/go.mod beside cmd/aqpd) at or above %s", wd)
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all five)")
		seed         = flag.Int64("seed", 1, "workload seed: literal pools and schedule shuffles derive from it")
		seconds      = flag.Float64("seconds", 10, "length of the timed window")
		traceMode    = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: traced pass and per-layer metrics; -1: both")
		rows         = flag.Int("rows", defaultRows, "fact-table rows every server process generates")
		out          = flag.String("out", "", "result file to create or append this invocation's runs to (default .bench_build/result.json, overwritten)")
		traceOut     = flag.String("trace-out", "", "file for the bench-side spans of traced passes (default .bench_build/spans_<workload>.json)")
		compare      = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		updateGolden = flag.Bool("update-golden", false, "rewrite bench/testdata/answers_seed1.json from the in-process reference and exit")
		shardChild   = flag.Int("shard-child", -1, "internal: serve this shard of the remote topology")
	)
	flag.Parse()

	if *shardChild >= 0 {
		if err := runShardChild(*shardChild, *rows); err != nil {
			fmt.Fprintln(os.Stderr, "bench shard child:", err)
			os.Exit(1)
		}
		return
	}
	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, root, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *updateGolden {
		if err := writeGolden(root, defaultRows, 1); err != nil {
			fatal(err)
		}
		return
	}

	// A signal stops every server before the harness exits.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()

	cfg := config{root: root, buildDir: filepath.Join(root, ".bench_build"),
		rows: *rows, seed: *seed, seconds: *seconds, setups: setupRepeats, traceOut: *traceOut}
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		fatal(err)
	}
	if cfg.aqpd, err = buildAqpd(root, cfg.buildDir); err != nil {
		fatal(err)
	}
	if cfg.self, err = os.Executable(); err != nil {
		fatal(err)
	}

	specs := workloads()
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		specs = []workloadSpec{w}
	}
	passes := []int{0, 1}
	if *traceMode >= 0 {
		passes = []int{*traceMode}
	}

	var records []runRecord
	for _, w := range specs {
		for _, pass := range passes {
			rec, err := runWorkload(cfg, w, pass)
			if err != nil {
				killAll()
				fatal(fmt.Errorf("%s: %w", w.Name, err))
			}
			printRecord(rec)
			records = append(records, rec)
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(cfg.buildDir, "result.json")
		os.Remove(path)
	}
	if err := appendResults(path, cfg, records); err != nil {
		fatal(err)
	}

	// The last line of standard output is one JSON object: the run's
	// result, or for several runs their sum with metrics keyed
	// "<workload>:<metric>".
	final := records[0].result
	if len(records) > 1 {
		final = result{Correct: true, Metrics: make(map[string]metric)}
		for _, r := range records {
			final.Correct = final.Correct && r.Correct
			final.Attempted += r.Attempted
			final.Failed += r.Failed
			for name, m := range r.Metrics {
				final.Metrics[r.Workload+":"+name] = m
			}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// printRecord prints every metric of a run by name, with unit and the
// latency sample count.
func printRecord(r runRecord) {
	fmt.Printf("# %s seed=%d trace=%d attempted=%d failed=%d fail_ratio=%g samples=%d correct=%v\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted), r.Samples, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("%-18s %-40s %14.6g %s\n", r.Workload, name, m.Value, m.Unit)
	}
}

func currentEnv(cfg config) environment {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = cfg.root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Rows: cfg.rows, Clients: clientCount, Seconds: cfg.seconds,
	}
}

// appendResults adds the runs to the result file at path, creating it with
// the environment record if it does not exist.
func appendResults(path string, cfg config, records []runRecord) error {
	file := resultFile{Env: currentEnv(cfg)}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	file.Runs = append(file.Runs, records...)
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printBreakdown lists the window's latencies per (template, mode) on
// standard error: which statements make up the median and the tail.
func printBreakdown(w workloadSpec, queries []query, win *window) {
	type line struct {
		name string
		ms   []float64
	}
	var lines []*line
	index := make(map[string]*line)
	for qi, q := range queries {
		name := q.Mode + " " + q.Template
		l, ok := index[name]
		if !ok {
			l = &line{name: name}
			index[name] = l
			lines = append(lines, l)
		}
		l.ms = append(l.ms, win.byQuery[qi]...)
	}
	for _, l := range lines {
		if len(l.ms) > 0 {
			sort.Float64s(l.ms)
			fmt.Fprintf(os.Stderr, "bench: %s: %-28s n=%-5d p50=%.3fms max=%.3fms\n",
				w.Name, l.name, len(l.ms), percentile(l.ms, 50), l.ms[len(l.ms)-1])
		}
	}
}

func distinctSQL(queries []query) []string {
	seen := make(map[string]bool)
	var out []string
	for _, q := range queries {
		if !seen[q.SQL] {
			seen[q.SQL] = true
			out = append(out, q.SQL)
		}
	}
	return out
}
