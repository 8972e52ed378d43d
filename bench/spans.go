package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the traced run made into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Name   string `json:"name"`
	Req    int    `json:"req,omitempty"` // request id of the what-if spans
	Start  int64  `json:"start_ns"`      // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps a workload's spans in memory until the traced run writes
// them out. Safe for concurrent use (open-loop requests end concurrently).
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return time.Duration(now - t.spans[id-1].Start)
}

// add records an already-timed span.
func (t *tracer) add(name string, parent, req int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent int, fn func(id int)) time.Duration {
	id := t.begin(name, parent, 0)
	fn(id)
	return t.end(id)
}

// selfTimes returns, per span name, the summed self time in milliseconds:
// each span's duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		self[s.Name] += float64(s.End-s.Start-covered(children[s.ID], s.Start, s.End)) / 1e6
	}
	return self
}

// covered returns the length of the union of intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, cur int64 = 0, lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write stores the spans and their per-name self times as JSON.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	t.mu.Lock()
	doc := struct {
		SelfMS map[string]float64 `json:"self_ms"`
		Spans  []span             `json:"spans"`
	}{self, t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
