package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Trace; the request's root span has ID 1 and Parent 0.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// traceIDs numbers traces across every tracer of a run.
var traceIDs atomic.Uint64

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint32
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.ids.Store(1) // ID 1 is every trace's root
	return t
}

func (t *tracer) newTrace() uint64 { return traceIDs.Add(1) }

// span times fn as a span named name under parent (0 makes it the root)
// and passes fn the span's id for its children.
func (t *tracer) span(trace uint64, parent uint32, name string, fn func(id uint32)) {
	id := uint32(1)
	if parent != 0 {
		id = t.ids.Add(1)
	}
	start := time.Since(t.epoch).Nanoseconds()
	fn(id)
	end := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// tracerRef is the tracer a server's handler wrapper reports to, if any.
type tracerRef struct{ p atomic.Pointer[tracer] }

func (r *tracerRef) get() *tracer  { return r.p.Load() }
func (r *tracerRef) set(t *tracer) { r.p.Store(t) }

// stage is the self time of one span name: its duration minus the time its
// child spans cover.
type stage struct {
	calls  int64
	selfNS int64
}

// stages aggregates the self time of every span name, and counts the traces
// (requests) that have a root span.
func (t *tracer) stages() (map[string]*stage, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	type key struct {
		trace uint64
		id    uint32
	}
	child := make(map[key]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[key{s.Trace, s.Parent}] += s.End - s.Start
		}
	}
	out := map[string]*stage{}
	var roots int64
	for _, s := range t.spans {
		if s.Parent == 0 {
			roots++
		}
		st := out[s.Name]
		if st == nil {
			st = &stage{}
			out[s.Name] = st
		}
		st.calls++
		st.selfNS += s.End - s.Start - child[key{s.Trace, s.ID}]
	}
	return out, roots
}
