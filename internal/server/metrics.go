package server

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Bucket bound presets. Each histogram family picks the preset that
// matches its unit; an implicit +Inf bucket catches the rest.
var (
	// latencyBucketsMS are upper bounds in milliseconds for query
	// latency histograms.
	latencyBucketsMS = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}
	// errorWidthBuckets are upper bounds for relative CI half-width
	// histograms (dimensionless, 0.001 = 0.1%).
	errorWidthBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}
	// rowsScannedBuckets are upper bounds for per-query rows-scanned
	// histograms.
	rowsScannedBuckets = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8}
)

// Metrics is an in-process metrics registry: named counters and fixed-
// bucket histograms, safe for concurrent use, serialized as JSON by the
// /metrics handler (and as Prometheus text by ?format=prom). Keys carry
// their labels inline, Prometheus-style: queries_total{technique="exact"}.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64
	hists    map[string]*histogram
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]int64),
		hists:    make(map[string]*histogram),
	}
}

// Key formats a metric key with one label: name{label="value"}. The
// value is escaped per the Prometheus text exposition format.
func Key(name, label, value string) string {
	return name + "{" + label + `="` + EscapeLabelValue(value) + `"}`
}

// EscapeLabelValue escapes a label value for the Prometheus text
// exposition format: backslash, double quote, and newline get backslash
// escapes; everything else — including non-ASCII — passes through as raw
// UTF-8. (Go's %q, used here previously, additionally hex-escapes
// non-printable and non-ASCII runes, which Prometheus parsers read
// literally.)
func EscapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Add increments a counter by delta.
func (m *Metrics) Add(key string, delta int64) {
	m.mu.Lock()
	m.counters[key] += delta
	m.mu.Unlock()
}

// Inc increments a counter by one.
func (m *Metrics) Inc(key string) { m.Add(key, 1) }

// Observe records one sample into a histogram with the default latency
// buckets (created on first use).
func (m *Metrics) Observe(key string, v float64) {
	m.ObserveWith(key, v, latencyBucketsMS)
}

// ObserveWith records one sample into a histogram with the given bucket
// bounds. Bounds are fixed at the histogram's first observation; later
// calls reuse the existing buckets regardless of the bounds argument, so
// every call site for one key should pass the same preset.
func (m *Metrics) ObserveWith(key string, v float64, bounds []float64) {
	m.mu.Lock()
	h := m.hists[key]
	if h == nil {
		h = newHistogram(bounds)
		m.hists[key] = h
	}
	h.observe(v)
	m.mu.Unlock()
}

// Counter reads a counter's current value (0 if never written).
func (m *Metrics) Counter(key string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[key]
}

// CounterSum sums a labeled counter family: every counter whose key is
// exactly prefix or starts with prefix followed by a label block. The
// label-block requirement keeps families with a shared name prefix apart
// (queries_total must not absorb queries_total_errors).
func (m *Metrics) CounterSum(prefix string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum int64
	labeled := prefix + "{"
	for k, v := range m.counters {
		if k == prefix || strings.HasPrefix(k, labeled) {
			sum += v
		}
	}
	return sum
}

// histogram is a fixed-bucket histogram over the bounds it was created
// with.
type histogram struct {
	bounds   []float64
	counts   []int64 // one per bound, plus trailing +Inf
	total    int64
	sum      float64
	min, max float64
}

func newHistogram(bounds []float64) *histogram {
	if len(bounds) == 0 {
		bounds = latencyBucketsMS
	}
	return &histogram{
		bounds: bounds,
		counts: make([]int64, len(bounds)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.total++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// HistogramSnapshot is the JSON form of one histogram.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Min     float64          `json:"min"`
	Max     float64          `json:"max"`
	Mean    float64          `json:"mean"`
	Buckets map[string]int64 `json:"buckets"`
}

// Snapshot copies the registry into a JSON-encodable form.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Gauges     map[string]int64             `json:"gauges"`
	// GaugesF carries float-valued gauges (SLO burn rates and error
	// budgets); absent entirely when telemetry is off, so the JSON of a
	// telemetry-less server is unchanged.
	GaugesF map[string]float64 `json:"gauges_float,omitempty"`
	// Info carries static build identity (go version, module version).
	Info map[string]string `json:"info,omitempty"`
}

// Snapshot captures the current state. Gauges (instantaneous readings
// like queue depth) are supplied by the caller.
func (m *Metrics) Snapshot(gauges map[string]int64) Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := Snapshot{
		Counters:   make(map[string]int64, len(m.counters)),
		Histograms: make(map[string]HistogramSnapshot, len(m.hists)),
		Gauges:     gauges,
	}
	for k, v := range m.counters {
		snap.Counters[k] = v
	}
	for k, h := range m.hists {
		hs := HistogramSnapshot{
			Count:   h.total,
			Sum:     h.sum,
			Buckets: make(map[string]int64, len(h.counts)),
		}
		if h.total > 0 {
			hs.Min = h.min
			hs.Max = h.max
			hs.Mean = h.sum / float64(h.total)
		}
		for i, c := range h.counts {
			if c == 0 {
				continue
			}
			label := "+Inf"
			if i < len(h.bounds) {
				label = fmt.Sprintf("le=%g", h.bounds[i])
			}
			hs.Buckets[label] = c
		}
		snap.Histograms[k] = hs
	}
	return snap
}

// TelemetrySample converts the registry (plus caller-supplied gauges)
// into one time-series sample for the telemetry store: counters and
// gauges as floats, histograms as cumulative bucket counts. One full copy
// under the registry lock, once per snapshot cadence — never on a query
// path.
func (m *Metrics) TelemetrySample(gauges map[string]int64) telemetry.Sample {
	smp := telemetry.Sample{T: time.Now(), Gauges: make(map[string]float64, len(gauges))}
	for k, v := range gauges {
		smp.Gauges[k] = float64(v)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	smp.Counters = make(map[string]float64, len(m.counters))
	smp.Hists = make(map[string]telemetry.Hist, len(m.hists))
	for k, v := range m.counters {
		smp.Counters[k] = float64(v)
	}
	for k, h := range m.hists {
		th := telemetry.Hist{
			Bounds: append([]float64(nil), h.bounds...),
			Cum:    make([]float64, len(h.counts)),
			Sum:    h.sum,
			Count:  float64(h.total),
		}
		var cum int64
		for i, c := range h.counts {
			cum += c
			th.Cum[i] = float64(cum)
		}
		smp.Hists[k] = th
	}
	return smp
}
