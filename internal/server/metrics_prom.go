package server

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// helpText is the HELP line registry: one human-readable sentence per
// metric family. Families without an entry get a generated fallback so
// every exposed family carries a HELP line.
var helpText = map[string]string{
	"queries_total":               "Completed queries by technique.",
	"queries_errors_total":        "Queries that returned an error.",
	"queries_shed_total":          "Queries shed by admission control (429).",
	"queries_abandoned_total":     "Queries whose client left while queued.",
	"queries_deadline_total":      "Queries that exhausted their deadline with no estimate.",
	"queries_partial_total":       "Deadline-truncated online-aggregation answers.",
	"queries_degraded_total":      "Queries answered by a degradation-ladder fallback technique.",
	"queries_contract_total":      "Contract executions by verdict.",
	"queries_by_guarantee":        "Completed queries by accuracy guarantee.",
	"queries_spec_met_total":      "Approximate answers whose realized CI met the requested error spec.",
	"queries_spec_missed_total":   "Approximate answers whose realized CI missed the requested error spec.",
	"query_latency_seconds":       "Query latency in seconds by technique.",
	"query_rows_scanned":          "Rows scanned per query by technique.",
	"query_ci_rel_width":          "Realized relative CI half-width of approximate answers.",
	"query_ci_target_width":       "Requested relative CI half-width of approximate answers.",
	"query_panics_total":          "Recovered query panics by engine.",
	"rows_scanned_total":          "Total rows scanned across all queries.",
	"samples_built_total":         "Offline sample-build operations completed.",
	"audits_total":                "Ground-truth audit executions by technique.",
	"audit_lag_seconds":           "Lag from answer served to audit verdict, in seconds.",
	"audit_covered_total":         "Audited answers whose CI covered the exact value.",
	"audit_missed_total":          "Audited answers whose CI missed the exact value.",
	"audit_rel_error":             "Realized relative error of audited answers.",
	"audit_contract_held_total":   "Audited contract answers whose contract held.",
	"audit_contract_broken_total": "Audited contract answers whose contract broke.",
	"coverage_violation_total":    "Windows where audit CI coverage fell below the confidence floor.",
	"contract_violation_total":    "Windows where the contract hold-rate fell below its floor.",
	"audit_dropped_total":         "Audit candidates shed because the audit queue was full.",
	"audit_deduped_total":         "Audit candidates deduplicated against a pending audit.",
	"audit_errors_total":          "Audit ground-truth executions that failed.",
	"audit_unmatched_total":       "Audit results that no longer matched a pending claim.",
	"audit_panics_total":          "Recovered audit-lane panics.",
	"audit_backlog":               "Audits waiting for idle capacity.",
	"sample_stale":                "1 when a table's offline samples are stale relative to its version.",
	"sample_stale_detected_total": "Audit-lane detections of stale offline samples.",
	"breaker_trips_total":         "Circuit-breaker trips by engine.",
	"breaker_open_total":          "Queries rejected by an open circuit breaker.",
	"engine_tripped":              "1 when an engine's circuit breaker is open.",
	"shard_exec_total":            "Per-shard scatter outcomes by table, shard, and outcome.",
	"queue_depth":                 "Queries waiting for a worker slot.",
	"in_flight":                   "Queries currently executing.",
	"workers":                     "Worker-pool size.",
	"queue_capacity":              "Admission queue capacity.",
	"max_query_workers":           "Per-query morsel-parallel worker cap.",
	"uptime_seconds":              "Server uptime in seconds.",
	"aqpd_build_info":             "Build identity as labels; value is always 1.",
	"slo_burn_rate":               "SLO error-budget burn rate by objective and window (1.0 = sustainable pace).",
	"slo_error_budget_remaining":  "SLO error budget remaining over the slow window (1 = untouched, <0 = overdrawn).",
}

func writeHelpType(w io.Writer, fam, typ string) {
	help := helpText[fam]
	if help == "" {
		help = "aqpd metric " + fam + "."
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", fam, help, fam, typ)
}

// writePrometheus renders a registry sample in Prometheus text exposition
// format 0.0.4: `# HELP` and `# TYPE` lines per family, counter and gauge
// series as-is, histograms as their cumulative `_bucket{le="..."}` series
// plus `_sum` and `_count`. The sample's gauges are integer readings;
// gaugesF carries float-valued gauges (SLO burn rates); info becomes a
// constant `aqpd_build_info 1` gauge with the identity as labels, the
// standard Prometheus idiom for exposing versions.
func writePrometheus(w io.Writer, smp telemetry.Sample, gaugesF map[string]float64, info map[string]string) {
	// Counters, grouped into families by base name.
	counterFamilies := make(map[string][]string) // family -> rendered series lines
	for k, v := range smp.Counters {
		fam, _ := splitKey(k)
		counterFamilies[fam] = append(counterFamilies[fam], fmt.Sprintf("%s %d\n", k, int64(v)))
	}
	writeFamilies(w, counterFamilies, "counter")

	// Gauges, grouped into families like counters: labeled gauges (e.g.
	// sample_stale{table="events"}) must share one # TYPE line per family.
	gaugeFamilies := make(map[string][]string)
	for k, v := range smp.Gauges {
		fam, _ := splitKey(k)
		gaugeFamilies[fam] = append(gaugeFamilies[fam], fmt.Sprintf("%s %d\n", k, int64(v)))
	}
	for k, v := range gaugesF {
		fam, _ := splitKey(k)
		gaugeFamilies[fam] = append(gaugeFamilies[fam], fmt.Sprintf("%s %s\n", k, formatFloat(v)))
	}
	writeFamilies(w, gaugeFamilies, "gauge")
	if len(info) > 0 {
		var labels []string
		for _, k := range sortedKeys(info) {
			labels = append(labels, k+`="`+EscapeLabelValue(info[k])+`"`)
		}
		writeHelpType(w, "aqpd_build_info", "gauge")
		fmt.Fprintf(w, "aqpd_build_info{%s} 1\n", strings.Join(labels, ","))
	}

	histFamilies := make(map[string][]string) // family -> series keys
	for k := range smp.Hists {
		fam, _ := splitKey(k)
		histFamilies[fam] = append(histFamilies[fam], k)
	}
	for _, fam := range sortedKeys(histFamilies) {
		series := histFamilies[fam]
		sort.Strings(series)
		writeHelpType(w, fam, "histogram")
		for _, k := range series {
			h := smp.Hists[k]
			_, labels := splitKey(k)
			for i, cum := range h.Cum {
				le := "+Inf"
				if i < len(h.Bounds) {
					le = formatFloat(h.Bounds[i])
				}
				fmt.Fprintf(w, "%s_bucket{%s} %d\n", fam, joinLabels(labels, `le="`+le+`"`), int64(cum))
			}
			suffix := ""
			if labels != "" {
				suffix = "{" + labels + "}"
			}
			fmt.Fprintf(w, "%s_sum%s %s\n", fam, suffix, formatFloat(h.Sum))
			fmt.Fprintf(w, "%s_count%s %d\n", fam, suffix, int64(h.Count))
		}
	}
}

// writeFamilies writes each family's HELP and TYPE lines, then its
// rendered series lines in sorted order.
func writeFamilies(w io.Writer, families map[string][]string, typ string) {
	for _, fam := range sortedKeys(families) {
		writeHelpType(w, fam, typ)
		series := families[fam]
		sort.Strings(series)
		for _, line := range series {
			io.WriteString(w, line)
		}
	}
}

// splitKey separates name{label="v"} into the family name and the label
// body (without braces); an unlabeled key returns ("name", "").
func splitKey(k string) (fam, labels string) {
	i := strings.IndexByte(k, '{')
	if i < 0 {
		return k, ""
	}
	return k[:i], strings.TrimSuffix(k[i+1:], "}")
}

// joinLabels merges an existing label body with one extra label.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
