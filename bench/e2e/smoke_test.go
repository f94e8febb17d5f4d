package main

import (
	"encoding/json"
	"os"
	"testing"
)

// One smoke-scale lifecycle per workload and mode: every declared metric
// is emitted, nothing fails, and the placement-only pair agrees bit for bit.
func TestSmokeLifecycles(t *testing.T) {
	digests := map[string]string{}
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			if traced && w.name == "text-single" {
				continue // text-dist's traced run is this one plus the dist layers
			}
			cfg := runConfig{seed: 3, seconds: 0.05, trace: traced, smoke: true, outDir: t.TempDir()}
			res, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.name, traced, res.Failed, res.Attempted, res.Failures)
			}
			for _, d := range metricSet(traced) {
				v, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not emitted", w.name, traced, d.name)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.name, v.Value)
				}
			}
			if prev, seen := digests[w.name]; seen && prev != res.PredDigest {
				t.Errorf("%s: pred_digest %s traced, %s untraced", w.name, res.PredDigest, prev)
			}
			digests[w.name] = res.PredDigest
			if traced {
				data, err := os.ReadFile(res.Notes["trace"])
				if err != nil {
					t.Fatalf("%s: %v", w.name, err)
				}
				var doc struct{ TraceEvents []json.RawMessage }
				if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
					t.Errorf("%s: trace has %d events, err %v", w.name, len(doc.TraceEvents), err)
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(driverLine(res)), &line); err != nil {
				t.Fatalf("%s: driver line: %v", w.name, err)
			}
			if !line.Correct || line.Attempted != res.Attempted || len(line.Metrics) != len(metricSet(traced)) {
				t.Errorf("%s traced=%v: driver line %+v", w.name, traced, line)
			}
		}
	}
	if digests["text-single"] != digests["text-dist"] {
		t.Errorf("text-dist predicts %s, text-single %s: placement changed the model", digests["text-dist"], digests["text-single"])
	}
}
