package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps every span of a traced run in memory and writes them as
// JSON lines when the run ends. Spans are recorded by the benchmark around
// its calls into each layer; a nil *tracer records nothing.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
}

// span is one timed call. Spans of one operation share Req; the root span
// of an operation has Parent 0.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// active is an open span; a nil *active belongs to a nil tracer.
type active struct {
	t     *tracer
	s     span
	start time.Time
}

// root opens the root span of operation req.
func (t *tracer) root(name string, req int64) *active {
	if t == nil {
		return nil
	}
	return t.open(name, 0, req)
}

func (t *tracer) open(name string, parent, req int64) *active {
	now := time.Now()
	return &active{t: t, start: now, s: span{
		Name: name, ID: t.ids.Add(1), Parent: parent, Req: req,
		Start: now.Sub(t.origin).Nanoseconds(),
	}}
}

// child opens a span caused by a.
func (a *active) child(name string) *active {
	if a == nil {
		return nil
	}
	return a.t.open(name, a.s.ID, a.s.Req)
}

// id returns the span's id, or 0 for a nil span.
func (a *active) id() int64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

// end closes the span.
func (a *active) end() {
	if a == nil {
		return
	}
	a.s.End = time.Since(a.t.origin).Nanoseconds()
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// remote records a span opened and closed elsewhere (a server handler
// timed on its own goroutine) as a child of parent.
func (t *tracer) remote(name string, parent, req int64, start, end time.Time) {
	if t == nil || parent == 0 {
		return
	}
	s := span{
		Name: name, ID: t.ids.Add(1), Parent: parent, Req: req,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes records, per layer, the mean self time per operation: each
// span's duration minus the part of it its child spans cover, summed by
// span name and divided by the number of operations (root spans named
// "bench").
func (t *tracer) selfTimes(rep *report) {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	covered := map[int64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	roots := 0
	for _, s := range spans {
		if s.Name == "bench" {
			roots++
		}
		self[s.Name] += max(0, s.End-s.Start-covered[s.ID])
	}
	for _, layer := range traceLayers {
		v := 0.0
		if roots > 0 {
			v = float64(self[layer]) / float64(roots) / 1e3
		}
		rep.set(layer+".self_us_per_op", "us", v, roots)
	}
	rep.set("trace.spans", "count", float64(len(spans)), len(spans))
}

// traceLayers are the span names, one per layer the benchmark times.
var traceLayers = []string{"bench", "http", "app", "orm", "parser", "migrate"}

// write writes every span as one JSON line to path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
