package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around the call. Spans of one op share Op; Parent is the index of the
// enclosing span, −1 for an op's root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Busy is the span's duration. An aggregate span stands for many short
	// calls (predicate evaluations, one per interaction chunk); its Busy is
	// their summed time and Calls their number.
	Busy  int64 `json:"busy_ns"`
	Calls int64 `json:"calls"`
}

// tracer keeps spans in memory; write dumps them once, at the end of the
// run. A nil *tracer records nothing, so untraced passes call the layers
// directly through the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its index (−1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := t.now()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: now, Calls: 1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = t.now()
	s.Busy = s.End - s.Start
}

// timedPred wraps pred so that each call adds its duration to one aggregate span
// named name under parent. The aggregate closes with its parent (see
// closeAggregate).
func timedPred[T any](t *tracer, name string, op, parent int, pred func(T) bool) (func(T) bool, int) {
	if t == nil {
		return pred, -1
	}
	id := t.begin(name, op, parent)
	t.spans[id].Calls = 0
	return func(x T) bool {
		start := time.Now()
		ok := pred(x)
		s := &t.spans[id]
		s.Busy += time.Since(start).Nanoseconds()
		s.Calls++
		return ok
	}, id
}

// closeAggregate stamps an aggregate span's end (its Busy is already summed).
func (t *tracer) closeAggregate(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
}

// layer totals over all spans of one name.
type layer struct {
	busy, self time.Duration
	calls      int64
}

// layers sums busy time, self time (busy minus the busy time of direct
// children) and calls per span name.
func (t *tracer) layers() map[string]layer {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Busy
		}
	}
	out := map[string]layer{}
	for i, s := range t.spans {
		l := out[s.Name]
		l.busy += time.Duration(s.Busy)
		l.self += time.Duration(s.Busy - child[i])
		l.calls += s.Calls
		out[s.Name] = l
	}
	return out
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	b, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
