package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself is not instrumented for it). Spans of one
// request share Req; Parent is the caller's span id, 0 at the root.
type Span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	reqs  atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a span in progress.
type open struct {
	t     *tracer
	name  string
	id    uint64
	par   uint64
	req   uint64
	start time.Time
}

// request starts a root span under a fresh request id.
func (t *tracer) request(name string) *open {
	return t.begin(name, 0, t.reqs.Add(1))
}

func (t *tracer) begin(name string, parent, req uint64) *open {
	return &open{t: t, name: name, id: t.ids.Add(1), par: parent, req: req, start: time.Now()}
}

// child starts a span caused by o.
func (o *open) child(name string) *open { return o.t.begin(name, o.id, o.req) }

// end closes the span and returns its duration.
func (o *open) end() time.Duration {
	now := time.Now()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, Span{
		Name: o.name, ID: o.id, Parent: o.par, Req: o.req,
		Start: int64(o.start.Sub(o.t.t0)), End: int64(now.Sub(o.t.t0)),
	})
	o.t.mu.Unlock()
	return now.Sub(o.start)
}

// timed runs fn inside a child span of o and returns the span's duration.
func (o *open) timed(name string, fn func()) time.Duration {
	sp := o.child(name)
	fn()
	return sp.end()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
