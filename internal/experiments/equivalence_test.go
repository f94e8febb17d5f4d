package experiments

import (
	"testing"

	"keystoneml/internal/cluster"
	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/optimizer"
	"keystoneml/internal/workload"
	"keystoneml/keystone"
)

// equivalenceSpecs are the evaluation pipelines the parallel scheduler
// must match the sequential oracle on: the three Figure 9 workloads plus
// the CIFAR convolutional pipeline and the two-branch (SIFT+LCS) caching
// pipeline whose gather fan-in is where DAG parallelism actually exists.
func equivalenceSpecs() []workloadSpec {
	out := specs(Quick)
	nCifar := 24
	cifarTrain := workload.Images(nCifar, 32, 3, 4, 21, 4)
	cifarTest := workload.Images(nCifar/2, 32, 3, 4, 22, 2)
	out = append(out, workloadSpec{
		name: "CIFAR-10",
		build: func() *core.Graph {
			return graphOf(keystone.CifarPipeline(keystone.CifarConfig{NumFilters: 8, Seed: 23, Iterations: 10}).EngineGraph())
		},
		train: cifarTrain, test: cifarTest, numClasses: 4,
	})
	vocTrain := workload.Images(16, 48, 3, 4, 40, 4)
	vocTest := workload.Images(8, 48, 3, 4, 41, 2)
	out = append(out, workloadSpec{
		name: "VOC-LCS",
		build: func() *core.Graph {
			return graphOf(keystone.VisionPipeline(keystone.VisionConfig{
				PCADims: 8, GMMComponents: 6, SampleDescs: 15, Seed: 9, Iterations: 10, WithLCS: true,
			}).EngineGraph())
		},
		train: vocTrain, test: vocTest, numClasses: 4,
	})
	return out
}

func floatsEqual(t *testing.T, name string, a, b *engine.Collection) {
	t.Helper()
	ra, rb := a.Collect(), b.Collect()
	if len(ra) != len(rb) {
		t.Fatalf("%s: record counts differ: %d vs %d", name, len(ra), len(rb))
	}
	for i := range ra {
		va, okA := ra[i].([]float64)
		vb, okB := rb[i].([]float64)
		if !okA || !okB {
			if ra[i] != rb[i] {
				t.Fatalf("%s: record %d differs: %v vs %v", name, i, ra[i], rb[i])
			}
			continue
		}
		if len(va) != len(vb) {
			t.Fatalf("%s: record %d dims differ: %d vs %d", name, i, len(va), len(vb))
		}
		for j := range va {
			if va[j] != vb[j] {
				t.Fatalf("%s: record %d dim %d differs: %g vs %g", name, i, j, va[j], vb[j])
			}
		}
	}
}

// TestSequentialParallelEquivalence is the scheduler's core contract:
// for every evaluation pipeline, executing the same optimized plan under
// the sequential oracle (workers=1) and the parallel scheduler must
// produce bit-identical training outputs and bit-identical fitted-model
// predictions on held-out data. All operators are deterministic (seeded
// RNGs, fixed iteration counts), so any divergence is a scheduler bug.
func TestSequentialParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, spec := range equivalenceSpecs() {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			g := spec.build()
			cfg := optimizer.Config{
				// LevelPipeline keeps planning deterministic (operator
				// selection at LevelFull depends on measured sample
				// timings, which could legitimately pick different
				// physical operators between two Optimize calls).
				Level:       optimizer.LevelPipeline,
				Resources:   cluster.Local(4),
				NumClasses:  spec.numClasses,
				SampleSizes: [2]int{8, 16},
			}
			plan := optimizer.Optimize(g, spec.train.Data, spec.train.Labels, cfg)

			runWith := func(workers int) (*engine.Collection, *engine.Collection, *core.ExecReport) {
				ctx := engine.NewContext(4)
				var cache *engine.CacheManager
				if len(plan.CacheSet) > 0 {
					cache = engine.NewCacheManager(0, engine.NewPinnedSetPolicy(core.CacheKeys(plan.CacheSet)))
				}
				ex := core.NewExecutor(plan.Graph, ctx, cache, spec.train.Data, spec.train.Labels).SetWorkers(workers)
				models, out, report := ex.Run()
				fitted := core.NewFitted(plan.Graph, models, ctx)
				return out, fitted.Apply(spec.test.Data), report
			}

			seqOut, seqPred, seqReport := runWith(1)
			parOut, parPred, parReport := runWith(4)

			floatsEqual(t, spec.name+"/train-output", seqOut, parOut)
			floatsEqual(t, spec.name+"/test-predictions", seqPred, parPred)

			// Where counts are deterministic — the linear Amazon and
			// CIFAR chains have no branch sharing — hit/compute counts
			// must match the oracle exactly. Branching pipelines
			// legitimately differ: one pass computes a shared prefix
			// once where the depth-first oracle walks it per branch.
			if spec.name == "Amazon" || spec.name == "CIFAR-10" {
				for id, ss := range seqReport.Nodes {
					ps := parReport.Nodes[id]
					if ps == nil {
						t.Fatalf("%s: parallel report missing node #%d (%s)", spec.name, id, ss.Name)
					}
					if ss.Computes != ps.Computes || ss.Hits != ps.Hits+ps.Coalesced {
						t.Errorf("%s node #%d (%s): sequential computes=%d hits=%d, parallel computes=%d hits=%d coalesced=%d",
							spec.name, id, ss.Name, ss.Computes, ss.Hits, ps.Computes, ps.Hits, ps.Coalesced)
					}
				}
			}
		})
	}
}

// TestTunedPipelineEquivalence covers the optimizer.Plan.Execute entry
// point the experiments and tuning layers use: the parallelism argument
// must select the scheduler without changing results.
func TestTunedPipelineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := specs(Quick)[1] // TIMIT: gather fan-in exercises branch dispatch
	g := spec.build()
	cfg := optimizer.Config{
		Level:       optimizer.LevelPipeline,
		Resources:   cluster.Local(4),
		NumClasses:  spec.numClasses,
		SampleSizes: [2]int{8, 16},
	}
	plan := optimizer.Optimize(g, spec.train.Data, spec.train.Labels, cfg)
	_, seqOut, _ := plan.Execute(spec.train.Data, spec.train.Labels, 1)
	_, parOut, _ := plan.Execute(spec.train.Data, spec.train.Labels, 4)
	floatsEqual(t, spec.name+"/plan-execute", seqOut, parOut)
}
