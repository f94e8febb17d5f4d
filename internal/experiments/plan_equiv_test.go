package experiments

import (
	"math"
	"reflect"
	"testing"

	"keystoneml/internal/cluster"
	"keystoneml/internal/core"
	"keystoneml/internal/optimizer"
	"keystoneml/internal/workload"
	"keystoneml/keystone"
)

// TestDefaultSamplesPlanLikeFixedSizes pins what the data-proportional
// sample sizes must not change: on the five paper pipelines, at sizes
// where the default samples well under the former fixed 256/512, the
// optimizer selects the same physical operators and profiles every
// node's output size within 10 %.
func TestDefaultSamplesPlanLikeFixedSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, spec := range paperPipelines() {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			optimize := func(sizes [2]int) *optimizer.Plan {
				return optimizer.Optimize(spec.build(), spec.train.Data, spec.train.Labels, optimizer.Config{
					Level: optimizer.LevelFull, Resources: cluster.Local(4),
					NumClasses: spec.numClasses, SampleSizes: sizes,
				})
			}
			def, fixed := optimize([2]int{}), optimize([2]int{256, 512})
			if got, was := def.Profile.SampleSizes[1], fixed.Profile.SampleSizes[1]; got >= was {
				t.Fatalf("default sampled %d records, fixed sizes %d: nothing to compare", got, was)
			}
			if !reflect.DeepEqual(def.Chosen, fixed.Chosen) {
				t.Errorf("Chosen differs: default %v, fixed 256/512 %v", def.Chosen, fixed.Chosen)
			}
			for id, want := range fixed.Profile.Nodes {
				got := def.Profile.Nodes[id]
				if math.Abs(float64(got.SizeBytes-want.SizeBytes)) > 0.10*float64(want.SizeBytes) {
					t.Errorf("node %d %s: SizeBytes %d, fixed 256/512 gives %d", id, want.Name, got.SizeBytes, want.SizeBytes)
				}
			}
		})
	}
}

// paperPipelines is the five paper pipelines at the sizes the
// plan-stability tests profile: Figure 9's three at Full scale, plus
// CIFAR-10 and VOC with the LCS branch.
func paperPipelines() []workloadSpec {
	return append(specs(Full), workloadSpec{
		name: "CIFAR-10",
		build: func() *core.Graph {
			return graphOf(keystone.CifarPipeline(keystone.CifarConfig{NumFilters: 8, Seed: 23, Iterations: 10}).EngineGraph())
		},
		train: workload.Images(96, 32, 3, 4, 21, 4), numClasses: 4,
	}, workloadSpec{
		name: "VOC-LCS",
		build: func() *core.Graph {
			return graphOf(keystone.VisionPipeline(keystone.VisionConfig{
				PCADims: 8, GMMComponents: 6, SampleDescs: 15, Seed: 9, Iterations: 10, WithLCS: true,
			}).EngineGraph())
		},
		train: workload.Images(96, 48, 3, 4, 40, 4), numClasses: 4,
	})
}
