// Fanout fixture for the parallel DAG scheduler: a synthetic
// multi-branch pipeline whose width the stage-aware executor can overlap
// where the sequential depth-first oracle walks one branch at a time
// (BenchmarkParallelDAG measures the difference).
package experiments

import (
	"fmt"
	"time"

	"keystoneml/internal/core"
	"keystoneml/internal/workload"
	"keystoneml/keystone"
)

// FanoutConfig parameterizes the synthetic multi-branch pipeline used to
// measure DAG-level overlap.
type FanoutConfig struct {
	Branches   int
	Records    int
	Dim        int
	Partitions int
	// BranchLatency is per-record simulated I/O inside each branch
	// operator — the stand-in for reading remote or cold data in the
	// distributed setting the engine models. Zero makes the branches
	// purely CPU-bound.
	BranchLatency time.Duration
	Iterations    int // solver passes re-walking the branches
}

// BuildFanout constructs a k-branch gather pipeline over dense vectors:
// source -> k feature branches -> gather -> linear solver. Each branch
// is independent, so the DAG has width k at the featurization stage and
// the parallel scheduler can overlap what the sequential oracle walks
// one branch at a time.
func BuildFanout(cfg FanoutConfig) (*core.Graph, workload.Labeled) {
	train := workload.DenseVectors(cfg.Records, cfg.Dim, 4, 17, cfg.Partitions)
	in := keystone.Input[[]float64]()
	branches := make([]*keystone.Pipeline[[]float64, []float64], cfg.Branches)
	for i := 0; i < cfg.Branches; i++ {
		shift := float64(i + 1)
		lat := cfg.BranchLatency
		branches[i] = in.Then(keystone.NewOp(fmt.Sprintf("fanout.branch%d", i),
			func(x []float64) []float64 {
				if lat > 0 {
					time.Sleep(lat)
				}
				out := make([]float64, len(x))
				for j, v := range x {
					out[j] = v*shift + shift
				}
				return out
			}))
	}
	final := keystone.Gather(branches...).ThenEstimator(keystone.LinearSolver(cfg.Iterations))
	return graphOf(final.EngineGraph()), train
}

// graphOf keeps the DAG of a pipeline's EngineGraph, whose sink is the
// pipeline's output.
func graphOf(g *core.Graph, _ *core.Node) *core.Graph { return g }
