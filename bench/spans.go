package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/trace"
)

// span is one bench-side timing record: a named interval, the span that
// caused it (0 for a root) and the request it belongs to. Spans are taken
// from outside the program, around calls into its layers; the spans aqpd
// itself returns for a traced query are folded into the same shape.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends; a nil recorder
// records nothing, which is how the timed window runs with tracing off.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// start opens a span and returns its id; end closes it.
func (r *recorder) start(name string, parent, req int) int {
	if r == nil {
		return 0
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(r.spans)
}

func (r *recorder) end(id int) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return s.dur()
}

// timed records fn as one span and returns its duration.
func (r *recorder) timed(name string, parent, req int, fn func()) time.Duration {
	if r == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	id := r.start(name, parent, req)
	fn()
	return r.end(id)
}

// addProfile folds a span tree returned by aqpd into the recorder under
// parent, keeping the program's own names, starts and durations.
func (r *recorder) addProfile(p *trace.Profile, parent, req int) {
	if r == nil || p == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Req: req, Name: p.Name,
		Start: p.StartUnixNano,
		End:   p.StartUnixNano + int64(p.DurationMS*float64(time.Millisecond)),
	})
	id := len(r.spans)
	r.mu.Unlock()
	for _, c := range p.Children {
		r.addProfile(c, id, req)
	}
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap (scatter
// legs run in parallel) or spill past the parent (an operator's busy time
// is anchored at its creation), so the covered part is the union of the
// child intervals clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// aqpdCategories are the names aqpd's span tree is folded into; any span
// not listed is an executor operator ("op").
var aqpdCategories = []string{
	"query", "engine", "plan", "place-samplers", "sample-cache",
	"select-sample", "estimate", "chunks", "scatter", "shard", "op",
}

// spanCategory maps one of aqpd's span names ("engine online",
// "scatter lineitem (4 shards)", "Scan lineitem …") to its category.
func spanCategory(name string) string {
	first, _, _ := strings.Cut(name, " ")
	for _, c := range aqpdCategories {
		if first == c {
			return c
		}
	}
	return "op"
}

// selfByCategory sums self time per aqpd category over the subtrees
// rooted at spans named root.
func selfByCategory(spans []span, root string) map[string]time.Duration {
	self := selfTimes(spans)
	inTree := make(map[int]bool)
	out := make(map[string]time.Duration)
	for _, s := range spans { // parents precede children in recorder order
		if (s.Parent == 0 || !inTree[s.Parent]) && s.Name != root {
			continue
		}
		inTree[s.ID] = true
		out[spanCategory(s.Name)] += self[s.ID]
	}
	return out
}
