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
	// latencyBuckets are upper bounds in seconds for latency histograms.
	latencyBuckets = []float64{0.001, 0.002, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}
	// errorWidthBuckets are upper bounds for relative CI half-width
	// histograms (dimensionless, 0.001 = 0.1%).
	errorWidthBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}
	// rowsScannedBuckets are upper bounds for per-query rows-scanned
	// histograms.
	rowsScannedBuckets = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8}
)

// Metrics is an in-process metrics registry: named counters and fixed-
// bucket histograms, safe for concurrent use. Sample is its one read; the
// /metrics handler serializes that copy as JSON (and as Prometheus text
// with ?format=prom). Keys carry their labels inline, Prometheus-style:
// queries_total{technique="exact"}.
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

// Key formats a metric key from label/value pairs, in the order given:
// Key("q", "a", "1", "b", "2") is q{a="1",b="2"}. Values are escaped per
// the Prometheus text exposition format.
func Key(name string, labels ...string) string {
	if len(labels) == 0 || len(labels)%2 != 0 {
		panic("server: Key needs label/value pairs")
	}
	n := len(name) + 1
	for _, l := range labels {
		n += len(l) + 2
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(name)
	sep := byte('{')
	for i := 0; i < len(labels); i += 2 {
		b.WriteByte(sep)
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(labels[i+1]))
		b.WriteByte('"')
		sep = ','
	}
	b.WriteByte('}')
	return b.String()
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
// buckets, in seconds (created on first use).
func (m *Metrics) Observe(key string, v float64) {
	m.ObserveWith(key, v, latencyBuckets)
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
		bounds = latencyBuckets
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

// Sample copies the registry under its lock: counters, and histograms as
// cumulative bucket counts. It is the registry's one read; /metrics, its
// Prometheus form and the time-series collector render the copy after the
// lock is released, so a slow reader never holds up a query's writes.
func (m *Metrics) Sample() telemetry.Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	smp := telemetry.Sample{
		T:        time.Now(),
		Counters: make(map[string]float64, len(m.counters)),
		Hists:    make(map[string]telemetry.Hist, len(m.hists)),
	}
	for k, v := range m.counters {
		smp.Counters[k] = float64(v)
	}
	for k, h := range m.hists {
		th := telemetry.Hist{
			Bounds: h.bounds, // fixed at creation, never written again
			Cum:    make([]float64, len(h.counts)),
			Sum:    h.sum,
			Count:  float64(h.total),
			Min:    h.min,
			Max:    h.max,
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

// HistogramSnapshot is the JSON form of one histogram.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Min     float64          `json:"min"`
	Max     float64          `json:"max"`
	Mean    float64          `json:"mean"`
	Buckets map[string]int64 `json:"buckets"`
}

// Snapshot is the JSON body of /metrics.
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

// newSnapshot renders a sample as the /metrics JSON body: integer counters
// and gauges, and each histogram with its per-bucket (not cumulative)
// counts, empty buckets left out.
func newSnapshot(smp telemetry.Sample, gaugesF map[string]float64, info map[string]string) Snapshot {
	snap := Snapshot{
		Counters:   make(map[string]int64, len(smp.Counters)),
		Histograms: make(map[string]HistogramSnapshot, len(smp.Hists)),
		Gauges:     make(map[string]int64, len(smp.Gauges)),
		GaugesF:    gaugesF,
		Info:       info,
	}
	for k, v := range smp.Counters {
		snap.Counters[k] = int64(v)
	}
	for k, v := range smp.Gauges {
		snap.Gauges[k] = int64(v)
	}
	for k, h := range smp.Hists {
		hs := HistogramSnapshot{
			Count:   int64(h.Count),
			Sum:     h.Sum,
			Buckets: make(map[string]int64, len(h.Cum)),
		}
		if h.Count > 0 {
			hs.Min, hs.Max, hs.Mean = h.Min, h.Max, h.Sum/h.Count
		}
		prev := 0.0
		for i, cum := range h.Cum {
			if c := int64(cum - prev); c > 0 {
				label := "+Inf"
				if i < len(h.Bounds) {
					label = fmt.Sprintf("le=%g", h.Bounds[i])
				}
				hs.Buckets[label] = c
			}
			prev = cum
		}
		snap.Histograms[k] = hs
	}
	return snap
}
