package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

const requestTimeout = 60 * time.Second

// client is one closed-loop caller: its own keep-alive connection, one
// request in flight, the next sent only after the reply is checked.
type client struct {
	http *http.Client
	url  string
	buf  bytes.Buffer
}

func newClient(url string) *client {
	return &client{
		url: url + "/query",
		http: &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends one query and returns the decoded reply and the
// client-observed latency: request written to last body byte read.
func (c *client) post(body []byte) (*wireResponse, time.Duration, error) {
	t0 := time.Now()
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, time.Since(t0), err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, lat, fmt.Errorf("status %d: %s", resp.StatusCode, clip(c.buf.Bytes()))
	}
	var r wireResponse
	if err := json.Unmarshal(c.buf.Bytes(), &r); err != nil {
		return nil, lat, fmt.Errorf("decode reply: %w", err)
	}
	return &r, lat, nil
}

// runPlan is a workload's query pool readied for driving: request bodies and
// the answer every reply must match.
type runPlan struct {
	w       workloadSpec
	queries []query
	bodies  [][]byte
	expect  []*expectation
}

// check is the per-reply verdict: guards, then bit-identity with the
// in-process reference. Any failure counts against fail_ratio.
func (p *runPlan) check(qi int, r *wireResponse) error {
	if err := checkGuards(p.w, p.queries[qi], r); err != nil {
		return err
	}
	return p.expect[qi].matches(r)
}

// failures counts failed requests by reason, keeping one example each.
type failures struct {
	mu     sync.Mutex
	counts map[string]int
}

func (f *failures) add(q query, err error) {
	f.addN(fmt.Sprintf("%s %s: %v", q.Mode, q.Template, err), 1)
}

func (f *failures) addN(reason string, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.counts == nil {
		f.counts = make(map[string]int)
	}
	f.counts[reason] += n
}

func (f *failures) total() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.counts {
		n += c
	}
	return n
}

func (f *failures) lines() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for reason, c := range f.counts {
		out = append(out, fmt.Sprintf("%d× %s", c, reason))
	}
	sort.Strings(out)
	return out
}

// window is the outcome of one closed-loop run.
type window struct {
	elapsed   time.Duration
	attempted int
	latencies []float64 // ms, correct replies only, ascending
	// byQuery holds the same latencies per pool query, in arrival order.
	byQuery [][]float64
	fails   failures
}

// merge pools another window's requests into win.
func (win *window) merge(o *window) {
	win.elapsed += o.elapsed
	win.attempted += o.attempted
	win.latencies = append(win.latencies, o.latencies...)
	sort.Float64s(win.latencies)
	for qi, ms := range o.byQuery {
		win.byQuery[qi] = append(win.byQuery[qi], ms...)
	}
	for reason, c := range o.fails.counts {
		win.fails.addN(reason, c)
	}
}

// drive runs the closed loop for d: each client walks its schedule from
// the given offset, wrapping around, and checks every reply before sending
// the next request.
func drive(url string, p *runPlan, walks [][]int, offset int, d time.Duration) *window {
	win := &window{byQuery: make([][]float64, len(p.queries))}
	type sample struct {
		qi int
		ms float64
	}
	perClient := make([][]sample, len(walks))
	attempted := make([]int, len(walks))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for ci, walk := range walks {
		wg.Add(1)
		go func(ci int, walk []int) {
			defer wg.Done()
			c := newClient(url)
			defer c.close()
			for i := offset; time.Now().Before(deadline); i++ {
				qi := walk[i%len(walk)]
				r, lat, err := c.post(p.bodies[qi])
				if err == nil {
					err = p.check(qi, r)
				}
				attempted[ci]++
				if err != nil {
					win.fails.add(p.queries[qi], err)
					continue
				}
				perClient[ci] = append(perClient[ci], sample{qi, float64(lat) / float64(time.Millisecond)})
			}
		}(ci, walk)
	}
	wg.Wait()
	win.elapsed = time.Since(start)
	for ci := range walks {
		win.attempted += attempted[ci]
		for _, s := range perClient[ci] {
			win.latencies = append(win.latencies, s.ms)
			win.byQuery[s.qi] = append(win.byQuery[s.qi], s.ms)
		}
	}
	sort.Float64s(win.latencies)
	return win
}

// newRunPlan readies queries for driving: the twin's answer to each is
// what the topology must reproduce.
func newRunPlan(w workloadSpec, queries []query, ref *reference) (*runPlan, error) {
	p := &runPlan{w: w, queries: queries}
	for _, q := range queries {
		want, err := ref.expect(w, q)
		if err != nil {
			return nil, err
		}
		p.bodies = append(p.bodies, requestBody(q, false))
		p.expect = append(p.expect, want)
	}
	return p, nil
}

// preflight sends every query of the given plans (the pool, and the
// accuracy probes) once, checks each reply in full, scores CI accuracy
// against the exact ground truth and, when a golden applies, compares
// exact answers with it. It runs before the warm-up, outside any timed
// window.
func preflight(url string, ref *reference, gold golden, fails *failures, plans ...*runPlan) *accuracy {
	c := newClient(url)
	defer c.close()
	acc := &accuracy{}
	verify := func(p *runPlan, q query, r *wireResponse) error {
		got, err := parseAnswer(r)
		if err != nil {
			return err
		}
		truth, err := ref.truth(q.truthSQL())
		if err != nil {
			return err
		}
		if q.Mode != "exact" {
			acc.scanned += float64(r.RowsScanned)
			acc.kept += float64(r.RowsScanned) * r.SampleFraction
			return acc.add(got, truth)
		}
		if p.w.Topology != "single" && q.TruthSQL == "" {
			if err := exactAgrees(got, truth); err != nil {
				return err
			}
		}
		if gold != nil {
			return gold.check(goldenTopology(p.w), q.SQL, r.Rows)
		}
		return nil
	}
	for _, p := range plans {
		for qi, q := range p.queries {
			r, _, err := c.post(p.bodies[qi])
			if err == nil {
				err = p.check(qi, r)
			}
			if err == nil {
				err = verify(p, q, r)
			}
			if err != nil {
				fails.add(q, err)
			}
		}
	}
	return acc
}

// replay is the traced pass: one client sends every query of the pool
// `rounds` times, each request under a bench-side span. With traced set
// the request asks aqpd for its own span tree, which is folded under the
// request's span. It returns the per-request latencies (ms) and the
// serving overhead (us): client round trip minus the latency aqpd reports.
func replay(url string, p *runPlan, rounds int, traced bool, rec *recorder, fails *failures) (lat, overheadUS []float64) {
	c := newClient(url)
	defer c.close()
	name := "request"
	if traced {
		name = "request.traced"
	}
	for round := 0; round < rounds; round++ {
		for qi, q := range p.queries {
			body := p.bodies[qi]
			if traced {
				body = requestBody(q, true)
			}
			req := round*len(p.queries) + qi + 1
			id := rec.start(name, 0, req)
			r, d, err := c.post(body)
			rec.end(id)
			if err == nil {
				err = p.check(qi, r)
			}
			if err != nil {
				fails.add(q, err)
				continue
			}
			ms := float64(d) / float64(time.Millisecond)
			lat = append(lat, ms)
			overheadUS = append(overheadUS, (ms-r.LatencyMS)*1000)
			if traced {
				rec.addProfile(r.Trace, id, req)
			}
		}
	}
	return lat, overheadUS
}
