package experiments

import (
	"bytes"
	"strings"
	"testing"

	"keystoneml/internal/cluster"
	"keystoneml/internal/core"
	"keystoneml/internal/metrics"
	"keystoneml/internal/optimizer"
	"keystoneml/internal/workload"
)

// TestAnalyticExperimentsRun smoke-tests the pure-computation experiments
// (no measured fits) and checks their output contains the expected rows.
func TestAnalyticExperimentsRun(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	Table6(&buf)
	Figure12(&buf)
	out := buf.String()
	for _, want := range []string{
		"solver.lbfgs", "solver.block", // Table 1 rows
		"TensorFlow (strong)", "KeystoneML", "xxx", // Table 6 rows
		"featurize", "solve", "ImageNet", // Figure 12 rows
	} {
		if !strings.Contains(out, want) {
			t.Errorf("analytic experiment output missing %q", want)
		}
	}
}

// TestPipelinesLearnUnderFullOptimization is the Table 5 contract: every
// evaluation pipeline must clearly beat chance on held-out synthetic data.
func TestPipelinesLearnUnderFullOptimization(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, spec := range specs(Quick) {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			_, _, fitted := runPlan(spec, optimizer.LevelFull, 0)
			scores := collectScores(fitted, spec.test.Data)
			acc := metrics.Accuracy(scores, spec.test.Truth)
			chance := 1.0 / float64(spec.numClasses)
			if acc < chance*1.6 {
				t.Errorf("%s accuracy %.2f not clearly above chance %.2f", spec.name, acc, chance)
			}
		})
	}
}

// TestOptimizationLevelsOrdering is the Figure 9 contract: more
// optimization never makes end-to-end time dramatically worse, and full
// optimization beats no optimization on every workload.
func TestOptimizationLevelsOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, spec := range specs(Quick) {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			planN, execN, _ := runPlan(spec, optimizer.LevelNone, 0)
			planF, execF, _ := runPlan(spec, optimizer.LevelFull, 0)
			none := planN.OptimizeTime + execN
			full := planF.OptimizeTime + execF
			if full.Seconds() > none.Seconds() {
				t.Errorf("full optimization slower than none: %v vs %v", full, none)
			}
		})
	}
}

// TestGreedyCacheSetTargetsSolverInput is the Figure 11 contract: with
// ample memory, the strategy materializes the reused featurized data that
// feeds the iterative solver.
func TestGreedyCacheSetTargetsSolverInput(t *testing.T) {
	build, train := cachingSpec(Quick)
	g := build()
	plan := optimizer.Optimize(g, train.Data, train.Labels, optimizer.Config{
		Level:       optimizer.LevelPipeline,
		Resources:   cluster.Local(4),
		NumClasses:  train.Classes,
		SampleSizes: [2]int{8, 16},
	})
	if len(plan.CacheSet) == 0 {
		t.Fatal("greedy cached nothing on the branching pipeline")
	}
	// The solver's direct input (the gather node feeding the estimator)
	// must be cached in the unconstrained case.
	solverInputs := optimizer.EstimatorInputIDs(g)
	cached := map[int]bool{}
	for _, id := range plan.CacheSet {
		cached[id] = true
	}
	anyInputCached := false
	for _, id := range solverInputs {
		if cached[id] {
			anyInputCached = true
		}
	}
	if !anyInputCached {
		t.Errorf("no estimator input in cache set %v (inputs %v)", plan.CacheSet, solverInputs)
	}
}

// TestWorkloadSpecsConsistent checks spec-level invariants: aligned
// train/test classes and usable graphs.
func TestWorkloadSpecsConsistent(t *testing.T) {
	for _, spec := range specs(Quick) {
		if spec.train.Classes != spec.numClasses || spec.test.Classes != spec.numClasses {
			t.Errorf("%s class mismatch", spec.name)
		}
		g := spec.build()
		if g.Sink == nil || g.Sink.Kind != core.KindApplyModel {
			t.Errorf("%s pipeline sink is %v, want a model application", spec.name, g.Sink.Kind)
		}
	}
	_ = workload.Labeled{}
}
