package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (no code inside the library is instrumented). Spans of one fit or
// one request share Op; Parent is the span that caused this one (0 = root).
type span struct {
	ID     int
	Parent int
	Op     int
	Layer  string
	Name   string
	Lane   int // chrome-trace thread: 0 = fits and probes, 1.. = clients
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run shares code with the traced one at the
// cost of a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp allocates the identifier shared by all spans of one fit or request.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(op, parent, lane int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name, Lane: lane, Start: now, End: -1})
	return id
}

// end closes the span start returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes returns, per layer, the summed self time of its spans: a
// span's duration minus the part of that interval its direct children
// cover (overlapping children are merged, and clipped to the parent).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		cursor := s.Start
		for _, k := range kids {
			from, to := max(k.Start, cursor), min(k.End, s.End)
			if to > from {
				covered += to - from
				cursor = to
			}
		}
		out[s.Layer] += s.End - s.Start - covered
	}
	return out
}

// chromeEvent is one "complete" event of the Chrome trace-event format
// (chrome://tracing, ui.perfetto.dev).
type chromeEvent struct {
	Name string
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome flushes the spans as Chrome-trace JSON; the per-layer self
// times ride along under otherData.
func (t *tracer) writeChrome(path, workload string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			PID: 1, TID: s.Lane,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	self := make(map[string]float64)
	for layer, d := range selfTimes(spans) {
		self[layer] = float64(d) / float64(time.Millisecond)
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"workload": workload, "layer_self_ms": self},
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
