package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// BENCHMARK.json and the code must name the same workloads and metrics
// with the same units: the driver refuses a run that omits a declared
// metric, and an undeclared one would be measured for nothing.
func TestBenchmarkJSONParity(t *testing.T) {
	spec, err := loadBenchSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}

	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %v, -seconds defaults to %v", spec.RunSeconds, defaultSeconds)
	}

	var have []string
	for _, w := range workloads() {
		have = append(have, w.name)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if strings.Join(have, ",") != strings.Join(declared, ",") {
		t.Errorf("workloads: code has %v, BENCHMARK.json has %v", have, declared)
	}

	check := func(kind string, code []metricDef, file []boundedMetric) {
		t.Helper()
		units := map[string]string{}
		for _, d := range code {
			if _, dup := units[d.name]; dup {
				t.Errorf("%s metric %s declared twice in metrics.go", kind, d.name)
			}
			units[d.name] = d.unit
		}
		for _, m := range file {
			unit, ok := units[m.Name]
			if !ok {
				t.Errorf("%s metric %s is in BENCHMARK.json but never emitted", kind, m.Name)
				continue
			}
			if unit != m.Unit {
				t.Errorf("%s metric %s: unit %q in code, %q in BENCHMARK.json", kind, m.Name, unit, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, m.Name, m.Better)
			}
			delete(units, m.Name)
		}
		for name := range units {
			t.Errorf("%s metric %s is emitted but missing from BENCHMARK.json", kind, name)
		}
	}
	check("end-to-end", endToEnd, spec.EndToEnd)
	check("per-layer", perLayer, spec.PerLayer)

	// The contract caps a bound at 0.25 and wants setup_s to have the
	// largest. The timings sit at the cap because the machines the driver
	// runs on switch between two speeds ~22 % apart for minutes at a time
	// (README.md, "Bounds"); fit_alloc_mb does not depend on the machine.
	const limit = 0.25
	var setup float64
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s and lower-is-better; got %+v", m)
			}
		}
		if m.Bound <= 0 || m.Bound > limit {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, limit)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s: bound %v larger than setup_s's %v", m.Name, m.Bound, setup)
		}
	}
}
