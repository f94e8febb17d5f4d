package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsMergedClippedChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Layer: "a", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Layer: "b", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Layer: "c", Start: 20 * ms, End: 50 * ms},  // overlaps span 2
		{ID: 4, Parent: 1, Layer: "d", Start: 90 * ms, End: 120 * ms}, // outlives its parent
		{ID: 5, Parent: 3, Layer: "b", Start: 25 * ms, End: 35 * ms},  // grandchild: only c's concern
		{ID: 6, Layer: "a", Start: 200 * ms, End: -1},                 // never closed
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"a": 50 * ms, // 100 - (10..50 merged = 40) - (90..100 clipped = 10)
		"b": 30 * ms, // 20 + 10
		"c": 20 * ms, // 30 - 10
		"d": 30 * ms,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.start(tr.newOp(), 0, 0, "x", "y")
	tr.end(id)
	if id != 0 {
		t.Errorf("nil tracer handed out span %d", id)
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	tr := newTracer()
	op := tr.newOp()
	root := tr.start(op, 0, 0, "keystone", "fit")
	child := tr.start(op, root, 0, "core", "execute")
	tr.end(child)
	tr.end(root)
	tr.start(tr.newOp(), 0, 1, "client", "left open")

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path, "unit"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
			Args map[string]int
		}
		OtherData struct {
			LayerSelfMS map[string]float64 `json:"layer_self_ms"`
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want the 2 closed spans", len(doc.TraceEvents))
	}
	if e := doc.TraceEvents[1]; e.Ph != "X" || e.Args["parent"] != root || e.Args["op"] != op {
		t.Errorf("child event %+v does not point at its parent and op", e)
	}
	if _, ok := doc.OtherData.LayerSelfMS["core"]; !ok {
		t.Errorf("layer self times missing: %v", doc.OtherData.LayerSelfMS)
	}
}
