package aqp

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestSize logs the size row: the design-economy numbers the ROADMAP north
// star keeps beside latency, as one "size: key=value …" line that CI
// renders as a table and anyone can reproduce with
//
//	go test -count=1 -run '^TestSize$' -v .
//
// The keys, with the value that means the design is whole:
//   - loc: non-test Go lines outside bench/.
//   - db_methods: exported methods on *aqp.DB.
//   - run_sites: places in internal/core that run a plan or annotate a
//     result (3 = the one pipeline; a regrown fork shows here).
//   - chain_funcs: functions in internal/exec that switch over the plan's
//     chain nodes (1 = applyNode, the one chain).
//   - row_kernels: per-row closures in internal/exec (0 = the one family
//     of vector kernels).
//   - volcano_ops: Volcano operators in internal/exec (0 = every plan runs
//     on the one morsel scan loop).
//   - ola_lines, ola_row_evals: the length of internal/core/ola.go and how
//     often it evaluates an expression row by row (0 = chunks run on the
//     shared aggregate path).
//   - aqpbench_lines: the length of cmd/aqpbench, the experiment runner
//     plus the telemetry-cost gate (the pass/fail gates are tests, so a
//     regrown gate mode shows here).
//   - uniform_copies: uniform sample copies internal/core materialises
//     (1 = the offline engine's stored ladder; the kept-row memo is the one
//     way to reuse a uniform draw).
//   - filing_sites: lines in internal/server and cmd/ that file a served
//     query with the auditor, workload insight or the flight recorder (3 =
//     the one Observers.File).
//   - config_fields: settable fields of the non-test *Config / *Options
//     structs outside bench/ and examples/ (a field nothing sets to a
//     second value is a constant in disguise).
//   - unreached: internal/ declarations no program reaches and no
//     allowlist entry excuses (0; see TestInternalDeclarationsReachable).
func TestSize(t *testing.T) {
	var row []string
	add := func(key string, n int) { row = append(row, fmt.Sprintf("%s=%d", key, n)) }
	comment := regexp.MustCompile(`^\s*//`)

	add("loc", sizeNewlines(sizeSources(t, ".", true, false, "bench")))
	add("db_methods", sizeMatches(sizeSources(t, ".", false, false), `^func \(db \*DB\) [A-Z]`, nil))
	core := sizeSources(t, "internal/core", false, false)
	add("run_sites", sizeMatches(core, `annotate\(|exec\.RunParallelContext\(|runSharded\(`, regexp.MustCompile(`^func |^\s*//`)))
	exec := sizeSources(t, "internal/exec", false, false)
	add("chain_funcs", sizeMatches(exec, `case \*plan\.Project:`, nil))
	add("row_kernels", sizeMatches(exec, `func\(row int\)`, nil))
	add("volcano_ops", sizeMatches(exec, `Next\(\) \(\*Batch`, nil))
	ola := []string{sizeRead(t, "internal/core/ola.go")}
	add("ola_lines", sizeNewlines(ola))
	add("ola_row_evals", sizeMatches(ola, `expr\.(Row|EvalBool|ValuesRow)|\.Eval\(`, nil))
	add("aqpbench_lines", sizeNewlines(sizeSources(t, "cmd/aqpbench", false, true)))
	add("uniform_copies", sizeMatches(core, `sample\.BuildUniformTable\(`, comment))
	filers := append(sizeSources(t, "internal/server", true, false), sizeSources(t, "cmd", true, false)...)
	add("filing_sites", sizeMatches(filers, `\.ObserveStmt\(|\.OfferStmt\(|flight\.Record\(`, comment))
	add("config_fields", sizeConfigFields(sizeSources(t, ".", true, false, "bench", "examples")))
	rep, err := reachResult()
	if err != nil {
		t.Fatal(err)
	}
	add("unreached", len(rep.unreached))
	t.Logf("size: %s", strings.Join(row, " "))
}

// sizeSources returns the contents of the Go files in dir — test files
// only with tests, its subdirectories only with deep, and none under the
// named top-level directories.
func sizeSources(t *testing.T, dir string, deep, tests bool, skip ...string) []string {
	t.Helper()
	var srcs []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && (!deep || d.Name() == ".git" || dir == "." && slices.Contains(skip, path)) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && (tests || !strings.HasSuffix(path, "_test.go")) {
			srcs = append(srcs, sizeRead(t, path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return srcs
}

func sizeRead(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sizeNewlines counts lines the way wc -l does.
func sizeNewlines(srcs []string) int {
	n := 0
	for _, src := range srcs {
		n += strings.Count(src, "\n")
	}
	return n
}

// sizeMatches counts the lines that match pattern and not except.
func sizeMatches(srcs []string, pattern string, except *regexp.Regexp) int {
	re, n := regexp.MustCompile(pattern), 0
	for _, src := range srcs {
		for _, line := range strings.Split(src, "\n") {
			if re.MatchString(line) && (except == nil || !except.MatchString(line)) {
				n++
			}
		}
	}
	return n
}

// sizeConfigFields counts the named fields of every struct type whose name
// ends in Config or Options, a name per comma-separated part of a field
// line.
func sizeConfigFields(srcs []string) int {
	open := regexp.MustCompile(`^type [A-Za-z]*(Config|Options) struct \{`)
	field := regexp.MustCompile(`^\t[A-Z][A-Za-z0-9]*(, [A-Z][A-Za-z0-9]*)* `)
	n := 0
	for _, src := range srcs {
		in := false
		for _, line := range strings.Split(src, "\n") {
			switch {
			case open.MatchString(line):
				in = true
			case in && strings.HasPrefix(line, "}"):
				in = false
			case in && field.MatchString(line):
				n += strings.Count(line, ",") + 1
			}
		}
	}
	return n
}
