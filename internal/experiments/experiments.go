// Package experiments implements the reproduction suite: one experiment
// per claim of the paper (see DESIGN.md's per-experiment index). Each
// experiment is a pure function of a Scale (dataset size, trial count,
// seed) returning a printable Table, so the same code backs the
// cmd/aqpbench CLI and the testing.B benchmarks in bench_test.go.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Scale controls experiment sizing so benchmarks can shrink and the CLI
// can run at full size.
type Scale struct {
	// Rows is the fact-table size.
	Rows int
	// Trials is the Monte-Carlo repetition count.
	Trials int
	// Seed drives all randomness.
	Seed int64
	// Workers is the morsel-parallel worker count every query runs with;
	// 0 defers to runtime.GOMAXPROCS. Results are worker-count-invariant,
	// so tables are byte-identical across Workers settings.
	Workers int
}

// DefaultScale is the CLI default.
var DefaultScale = Scale{Rows: 1_000_000, Trials: 30, Seed: 1}

// SmallScale keeps benchmarks quick.
var SmallScale = Scale{Rows: 100_000, Trials: 10, Seed: 1}

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a note line printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is an experiment entry point.
type Runner func(Scale) (*Table, error)

// registry maps experiment IDs to runners, populated by init functions in
// the per-experiment files.
var registry = map[string]Runner{}

// descriptions maps IDs to one-line summaries.
var descriptions = map[string]string{}

func register(id, desc string, r Runner) {
	registry[id] = r
	descriptions[id] = desc
}

// Run executes one experiment by ID.
func Run(id string, s Scale) (*Table, error) {
	r, ok := registry[strings.ToUpper(id)]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)",
			id, strings.Join(IDs(), ", "))
	}
	return r(s)
}

// IDs lists registered experiments in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		// E1 < E2 < ... < E10 < E11 numerically.
		ni, nj := 0, 0
		fmt.Sscanf(out[i], "E%d", &ni)
		fmt.Sscanf(out[j], "E%d", &nj)
		return ni < nj
	})
	return out
}

// Describe returns the one-line summary of an experiment.
func Describe(id string) string { return descriptions[strings.ToUpper(id)] }

// helpers shared by experiments

func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f4(x float64) string  { return fmt.Sprintf("%.4f", x) }
func pct(x float64) string { return fmt.Sprintf("%.2f%%", x*100) }
func itoa(x int64) string  { return fmt.Sprintf("%d", x) }
