package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json -compare needs: which way each
// metric is better and how far it may worsen.
type benchSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchSpec
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func loadResults(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return file.Runs, nil
}

// verdict is the outcome of one metric x workload pairing.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"  // B's median is worse than A's by more than the bound
	verdictUnresolved verdict = "unresolved" // within the bound, but the runs spread wider than it
)

// judge compares the B runs of one metric against the A runs. change is
// (median B - median A) / median A, signed as measured; a metric whose
// medians moved the wrong way by more than bound has regressed, and one
// that did not but whose own runs spread (quartile distance over median)
// wider than bound cannot be called unchanged.
func judge(a, b []float64, better string, bound float64) (medA, medB, change float64, v verdict) {
	medA, medB = median(a), median(b)
	if medA != 0 {
		change = (medB - medA) / medA
	}
	worse := change
	if better == "higher" {
		worse = -change
	}
	switch {
	case worse > bound:
		v = verdictRegressed
	case max(quartileSpread(a), quartileSpread(b)) > bound:
		v = verdictUnresolved
	default:
		v = verdictOK
	}
	return medA, medB, change, v
}

// values collects metric name -> the values of every run of one workload
// in one mode.
func values(rs []*result, workload string, traced bool) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range rs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		for name, v := range r.Metrics {
			out[name] = append(out[name], v.Value)
		}
	}
	return out
}

// exact lists what must repeat exactly between two runs of one workload
// and seed: the prediction digest, and these. optimizer.cache_set_size is
// not among them: the planner picks the set from profiled timings, and it
// came out 1 or 2 for the same workload and seed while sizing.
var exact = []string{"quality", "optimizer.cse_merged"}

// checkRepeats reports every exact-repeat violation within and across the
// two result sets: a failed operation anywhere, a digest that differs
// between runs of the same workload and seed, or between text-single and
// text-dist (same model, different placement) at the same seed.
func checkRepeats(a, b []*result) []string {
	var bad []string
	all := append(append([]*result(nil), a...), b...)
	type key struct {
		workload string
		seed     uint64
	}
	digests := map[key]string{}
	counts := map[key]map[string]float64{}
	for _, r := range all {
		if r.Failed > 0 {
			bad = append(bad, fmt.Sprintf("%s seed %d: %d of %d operations failed", r.Workload, r.Seed, r.Failed, r.Attempted))
		}
		k := key{r.Workload, r.Seed}
		if d, seen := digests[k]; seen && d != r.PredDigest {
			bad = append(bad, fmt.Sprintf("%s seed %d: pred_digest %s vs %s", r.Workload, r.Seed, d, r.PredDigest))
		}
		digests[k] = r.PredDigest
		if counts[k] == nil {
			counts[k] = map[string]float64{}
		}
		for _, name := range exact {
			v, ok := r.Metrics[name]
			if !ok {
				continue
			}
			if prev, seen := counts[k][name]; seen && prev != v.Value {
				bad = append(bad, fmt.Sprintf("%s seed %d: %s %v vs %v", r.Workload, r.Seed, name, prev, v.Value))
			}
			counts[k][name] = v.Value
		}
	}
	for k, d := range digests {
		if k.workload != "text-single" {
			continue
		}
		if dd, ok := digests[key{"text-dist", k.seed}]; ok && dd != d {
			bad = append(bad, fmt.Sprintf("seed %d: text-dist pred_digest %s differs from text-single %s", k.seed, dd, d))
		}
	}
	sort.Strings(bad)
	return bad
}

// compareFiles prints, per workload and metric, both medians, the
// relative change with its base, the bound and the verdict, and reports
// whether B holds every bound against A with nothing unresolved and
// nothing that must repeat exactly differing.
func compareFiles(w io.Writer, benchPath, pathA, pathB string) (bool, error) {
	spec, err := loadBenchSpec(benchPath)
	if err != nil {
		return false, err
	}
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "A = %s, B = %s; change is (B-A)/A of the medians\n\n", pathA, pathB)
	fmt.Fprintf(w, "%-13s %-26s %12s %12s %9s %7s  %s\n", "workload", "end-to-end metric", "median A", "median B", "change", "bound", "verdict")
	for _, wl := range spec.Workloads {
		va, vb := values(a, wl.Name, false), values(b, wl.Name, false)
		for _, m := range spec.EndToEnd {
			if len(va[m.Name]) == 0 || len(vb[m.Name]) == 0 {
				continue
			}
			medA, medB, change, v := judge(va[m.Name], vb[m.Name], m.Better, m.Bound)
			if v != verdictOK {
				ok = false
			}
			fmt.Fprintf(w, "%-13s %-26s %12.5g %12.5g %+8.1f%% %6.0f%%  %s (n=%d,%d; %s is better)\n",
				wl.Name, m.Name, medA, medB, 100*change, 100*m.Bound, v, len(va[m.Name]), len(vb[m.Name]), m.Better)
		}
	}
	fmt.Fprintf(w, "\n%-13s %-40s %12s %12s %9s\n", "workload", "per-layer metric (no bound)", "median A", "median B", "change")
	for _, wl := range spec.Workloads {
		va, vb := values(a, wl.Name, true), values(b, wl.Name, true)
		for _, m := range spec.PerLayer {
			if len(va[m.Name]) == 0 || len(vb[m.Name]) == 0 {
				continue
			}
			medA, medB := median(va[m.Name]), median(vb[m.Name])
			if medA == 0 && medB == 0 {
				continue // does not apply to this workload
			}
			change := 0.0
			if medA != 0 {
				change = (medB - medA) / medA
			}
			fmt.Fprintf(w, "%-13s %-40s %12.5g %12.5g %+8.1f%%\n", wl.Name, m.Name, medA, medB, 100*change)
		}
	}
	if bad := checkRepeats(a, b); len(bad) > 0 {
		ok = false
		fmt.Fprintln(w, "\nmust repeat exactly, but did not:")
		for _, msg := range bad {
			fmt.Fprintln(w, "  "+msg)
		}
	}
	if ok {
		fmt.Fprintln(w, "\nPASS: every end-to-end metric within its bound, nothing unresolved, digests and counts repeat")
	} else {
		fmt.Fprintln(w, "\nFAIL")
	}
	return ok, nil
}
