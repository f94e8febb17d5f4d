package keystone

import (
	"testing"

	"keystoneml/internal/cluster"
	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/metrics"
	"keystoneml/internal/optimizer"
	"keystoneml/internal/workload"
)

// trainEval fits a pipeline at the given optimizer level and returns test
// accuracy.
func trainEval(t *testing.T, g *core.Graph, train, test workload.Labeled, level optimizer.Level) float64 {
	t.Helper()
	plan := optimizer.Optimize(g, train.Data, train.Labels, optimizer.Config{
		Level:       level,
		Resources:   cluster.Local(4),
		NumClasses:  train.Classes,
		SampleSizes: [2]int{16, 32},
	})
	models, _, _ := plan.Execute(train.Data, train.Labels, 0)
	fitted := core.NewFitted(g, models, engine.NewContext(0))
	out := fitted.Apply(test.Data).Collect()
	scores := make([][]float64, len(out))
	for i, r := range out {
		scores[i] = r.([]float64)
	}
	return metrics.Accuracy(scores, test.Truth)
}

func TestTextPipelineLearns(t *testing.T) {
	train := workload.AmazonReviews(400, 1, 4)
	test := workload.AmazonReviews(100, 2, 2)
	g := TextPipeline(TextConfig{NumFeatures: 1500, Iterations: 20}).g
	if acc := trainEval(t, g, train, test, optimizer.LevelFull); acc < 0.85 {
		t.Errorf("text accuracy %.2f < 0.85", acc)
	}
}

func TestSpeechPipelineLearns(t *testing.T) {
	train := workload.DenseVectors(400, 40, 8, 3, 4)
	test := workload.DenseVectors(100, 40, 8, 4, 2)
	g := SpeechPipeline(SpeechConfig{InputDim: 40, NumFeatures: 192, Seed: 7, Iterations: 20}).g
	if acc := trainEval(t, g, train, test, optimizer.LevelFull); acc < 0.8 {
		t.Errorf("speech accuracy %.2f < 0.8 (chance 0.125)", acc)
	}
}

func TestVisionPipelineLearns(t *testing.T) {
	train := workload.Images(40, 48, 1, 4, 5, 4)
	test := workload.Images(24, 48, 1, 4, 6, 2)
	g := VisionPipeline(VisionConfig{PCADims: 12, GMMComponents: 6, SampleDescs: 30, Seed: 9, Iterations: 20}).g
	if acc := trainEval(t, g, train, test, optimizer.LevelFull); acc < 0.45 {
		t.Errorf("vision accuracy %.2f < 0.45 (chance 0.25)", acc)
	}
}

func TestCifarPipelineLearns(t *testing.T) {
	train := workload.Images(48, 32, 3, 4, 21, 4)
	test := workload.Images(24, 32, 3, 4, 22, 2)
	g := CifarPipeline(CifarConfig{NumFilters: 12, Seed: 23, Iterations: 20}).g
	if acc := trainEval(t, g, train, test, optimizer.LevelFull); acc < 0.5 {
		t.Errorf("cifar accuracy %.2f < 0.5 (chance 0.25)", acc)
	}
}

func TestOptimizationLevelsPreserveSemantics(t *testing.T) {
	// The same pipeline under None/Pipeline/Full must predict the same
	// labels for the same data (Full may change solvers, so compare
	// argmax agreement, which must be near-total on separable data).
	train := workload.DenseVectors(300, 20, 4, 3, 4)
	test := workload.DenseVectors(80, 20, 4, 4, 2)
	var preds [][]int
	for _, level := range []optimizer.Level{optimizer.LevelNone, optimizer.LevelPipeline, optimizer.LevelFull} {
		g := SpeechPipeline(SpeechConfig{InputDim: 20, NumFeatures: 128, Seed: 5, Iterations: 25}).g
		plan := optimizer.Optimize(g, train.Data, train.Labels, optimizer.Config{
			Level: level, Resources: cluster.Local(4), NumClasses: 4, SampleSizes: [2]int{16, 32},
		})
		models, _, _ := plan.Execute(train.Data, train.Labels, 0)
		fitted := core.NewFitted(g, models, engine.NewContext(0))
		out := fitted.Apply(test.Data).Collect()
		scores := make([][]float64, len(out))
		for i, r := range out {
			scores[i] = r.([]float64)
		}
		preds = append(preds, metrics.ArgmaxAll(scores))
	}
	// None vs Pipeline must agree exactly (same operators, caching is
	// semantically invisible).
	for i := range preds[0] {
		if preds[0][i] != preds[1][i] {
			t.Fatalf("pipe-only changed prediction %d: %d vs %d", i, preds[0][i], preds[1][i])
		}
	}
	// Full may swap solvers; require >= 90% agreement.
	agree := 0
	for i := range preds[0] {
		if preds[0][i] == preds[2][i] {
			agree++
		}
	}
	if float64(agree)/float64(len(preds[0])) < 0.9 {
		t.Errorf("operator selection changed %d/%d predictions", len(preds[0])-agree, len(preds[0]))
	}
}

func TestVisionWithLCSHasGather(t *testing.T) {
	g := VisionPipeline(VisionConfig{WithLCS: true}).g
	found := false
	for _, n := range g.Topological() {
		if n.Kind == core.KindGather {
			found = true
		}
	}
	if !found {
		t.Error("WithLCS pipeline has no gather node")
	}
}

func TestPipelineDefaultsApplied(t *testing.T) {
	// Zero-valued configs must produce runnable pipelines.
	if TextPipeline(TextConfig{}) == nil || SpeechPipeline(SpeechConfig{InputDim: 8}) == nil ||
		VisionPipeline(VisionConfig{}) == nil || CifarPipeline(CifarConfig{}) == nil {
		t.Fatal("builders returned nil")
	}
}
