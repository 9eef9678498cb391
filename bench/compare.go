package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// manifest is BENCHMARK.json: the single statement of which workloads and
// metrics exist, which way each metric is better, and by what share of the
// base an end-to-end metric may worsen before it counts as a regression.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // lower | higher
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// series collects one metric's values over a file's runs of one workload.
func series(f *resultFile, workload, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict judges one (workload, metric) pairing: b against base a.
// Worsening by more than the bound is a regression; a run-to-run spread
// wider than the bound on either side leaves the pairing unresolved, never
// "unchanged".
func verdict(a, b []float64, better string, bound float64) (ratio float64, status string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	ratio = mb / ma
	if quartileSpread(a) > bound || quartileSpread(b) > bound {
		return ratio, "unresolved"
	}
	worse := ratio - 1
	if better == "higher" {
		worse = 1 - ratio
	}
	if worse > bound {
		return ratio, "regressed"
	}
	return ratio, "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) present in
// both files and reports whether any regressed. Failed requests are an
// end-to-end row of their own: any increase in fail_ratio regresses.
func compareFiles(w io.Writer, root, pathA, pathB string) (regressed bool, err error) {
	man, err := loadManifest(root)
	if err != nil {
		return false, err
	}
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	if a.Env != b.Env {
		fmt.Fprintf(w, "note: environments differ\n  a: %+v\n  b: %+v\n", a.Env, b.Env)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta (median, n)\tb (median, n)\tb/a\tbound\tstatus")
	for _, wl := range man.Workloads {
		for _, m := range man.EndToEnd {
			va, vb := series(a, wl.Name, m.Name), series(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ratio, status := verdict(va, vb, m.Better, m.Bound)
			regressed = regressed || status == "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s (n=%d)\t%.6g %s (n=%d)\t%.4f of a\t%s by %g\t%s\n",
				wl.Name, m.Name, median(va), m.Unit, len(va), median(vb), m.Unit, len(vb),
				ratio, m.Better, m.Bound, status)
		}
		fa, fb := failRatios(a, wl.Name), failRatios(b, wl.Name)
		if len(fa) == 0 || len(fb) == 0 {
			continue
		}
		status := "ok"
		if median(fb) > median(fa) {
			status, regressed = "regressed", true
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\t%g (n=%d)\t%g (n=%d)\t\tany increase\t%s\n",
			wl.Name, median(fa), len(fa), median(fb), len(fb), status)
	}
	return regressed, tw.Flush()
}

// failRatios lists failed/attempted of a workload's end-to-end runs.
func failRatios(f *resultFile, workload string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 0 && r.Attempted > 0 {
			out = append(out, float64(r.Failed)/float64(r.Attempted))
		}
	}
	return out
}
