package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   verdict
	}{
		{"lower is better, 5% slower, bound 10%", steady, []float64{1.05, 1.06, 1.04, 1.05}, "lower", 0.10, verdictOK},
		{"lower is better, 20% slower", steady, []float64{1.2, 1.21, 1.19, 1.2}, "lower", 0.10, verdictRegressed},
		{"lower is better, 20% faster is no regression", steady, []float64{0.8, 0.81, 0.79, 0.8}, "lower", 0.10, verdictOK},
		{"higher is better, 20% less", steady, []float64{0.8, 0.81, 0.79, 0.8}, "higher", 0.10, verdictRegressed},
		{"higher is better, 20% more", steady, []float64{1.2, 1.21, 1.19, 1.2}, "higher", 0.10, verdictOK},
		{"same median but B's runs spread wider than the bound", steady, []float64{0.7, 1.3, 0.8, 1.2}, "lower", 0.10, verdictUnresolved},
		{"a regression outranks a wide spread", steady, []float64{1.0, 2.0, 1.5, 1.6}, "lower", 0.10, verdictRegressed},
	} {
		if _, _, _, got := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if _, _, change, _ := judge([]float64{2}, []float64{3}, "lower", 1); change != 0.5 {
		t.Errorf("change = %v, want (3-2)/2", change)
	}
}

func TestCheckRepeats(t *testing.T) {
	run := func(w string, seed uint64, digest string) *result {
		return &result{Workload: w, Seed: seed, PredDigest: digest, Attempted: 10, Metrics: map[string]value{}}
	}
	a := []*result{run("text-single", 1, "aaaa"), run("text-dist", 1, "aaaa"), run("speech-batch", 1, "bbbb")}
	b := []*result{run("text-single", 1, "aaaa"), run("text-dist", 1, "aaaa"), run("speech-batch", 1, "bbbb")}
	if bad := checkRepeats(a, b); len(bad) != 0 {
		t.Fatalf("identical sets flagged: %v", bad)
	}

	b[2].PredDigest = "cccc" // same workload and seed, different predictions
	b[1].PredDigest = "dddd" // dist no longer matches single
	b[0].Failed = 1
	b[0].Trace = true
	b[0].Metrics["optimizer.cse_merged"] = value{Value: 1}
	a[0].Metrics["optimizer.cse_merged"] = value{Value: 0}
	bad := strings.Join(checkRepeats(a, b), "\n")
	for _, want := range []string{
		"speech-batch seed 1: pred_digest",
		"text-dist seed 1: pred_digest",
		"text-dist pred_digest dddd differs from text-single",
		"1 of 10 operations failed",
		"optimizer.cse_merged",
	} {
		if !strings.Contains(bad, want) {
			t.Errorf("missing %q in:\n%s", want, bad)
		}
	}
}

func TestCompareFilesExitStatus(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := write("BENCHMARK.json", map[string]any{
		"workloads":  []map[string]string{{"name": "w"}},
		"end_to_end": []map[string]any{{"name": "fit_s", "unit": "s", "better": "lower", "bound": 0.1}},
		"per_layer":  []map[string]any{{"name": "core.execute_s", "unit": "s", "better": "lower"}},
	})
	runs := func(fit float64) []*result {
		var rs []*result
		for seed := uint64(1); seed <= 2; seed++ {
			rs = append(rs,
				&result{Workload: "w", Seed: seed, PredDigest: "d", Attempted: 1, Metrics: map[string]value{"fit_s": {Value: fit, Unit: "s"}}},
				&result{Workload: "w", Seed: seed, Trace: true, PredDigest: "d", Attempted: 1, Metrics: map[string]value{"core.execute_s": {Value: fit / 2, Unit: "s"}}})
		}
		return rs
	}
	file := func(fit float64) resultFile { return resultFile{Runs: runs(fit)} }
	a, same, slow := write("a.json", file(1.0)), write("same.json", file(1.02)), write("slow.json", file(1.5))

	var out bytes.Buffer
	ok, err := compareFiles(&out, bench, a, same)
	if err != nil || !ok {
		t.Fatalf("A/A within bound: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "core.execute_s") {
		t.Errorf("per-layer table missing:\n%s", out.String())
	}
	out.Reset()
	ok, err = compareFiles(&out, bench, a, slow)
	if err != nil || ok {
		t.Fatalf("50%% slower fit passed: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("verdict missing:\n%s", out.String())
	}
}
