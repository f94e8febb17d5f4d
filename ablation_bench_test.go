// Ablation benchmarks for the design choices ARCHITECTURE.md calls out: blocked
// vs naive GEMM, CSE on vs off, greedy vs exact materialization planning,
// and TSQR vs normal equations inside the distributed exact solver.
package keystoneml_test

import (
	"testing"

	"keystoneml/internal/cluster"
	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
	"keystoneml/internal/optimizer"
	"keystoneml/internal/solvers"
	"keystoneml/internal/workload"
)

// BenchmarkAblationGEMM compares the cache-blocked multiply against a
// naive triple loop — the justification for the blocking in
// linalg.Matrix.Mul.
func BenchmarkAblationGEMM(b *testing.B) {
	rng := linalg.NewRNG(1)
	x := rng.GaussianMatrix(192, 192)
	y := rng.GaussianMatrix(192, 192)
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x.Mul(y)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			naiveMul(x, y)
		}
	})
}

func naiveMul(a, bm *linalg.Matrix) *linalg.Matrix {
	out := linalg.NewMatrix(a.Rows, bm.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < bm.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * bm.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// BenchmarkAblationCSE measures a branching pipeline with duplicated
// sub-expressions executed with and without common sub-expression
// elimination (both with unlimited caching, isolating CSE's effect on
// graph size rather than recompute).
func BenchmarkAblationCSE(b *testing.B) {
	items := make([]any, 2000)
	rng := linalg.NewRNG(2)
	for i := range items {
		items[i] = rng.GaussianVector(64)
	}
	data := engine.FromSlice(items, 4)
	build := func() *core.Graph {
		g := core.NewGraph()
		// Two structurally identical expensive branches.
		heavy := func(x []float64) []float64 {
			out := make([]float64, len(x))
			for i, v := range x {
				out[i] = v * v
			}
			return out
		}
		b1 := g.AddTransform(core.TypedTransform("heavy", heavy), g.Source)
		b2 := g.AddTransform(core.TypedTransform("heavy", heavy), g.Source)
		g.AddGather([]*core.Node{b1, b2})
		return g
	}
	run := func(b *testing.B, cse bool) {
		for i := 0; i < b.N; i++ {
			g := build()
			if cse {
				optimizer.CSE(g)
			}
			cache := engine.NewCacheManager(0, engine.NewLRUPolicy())
			core.NewExecutor(g, engine.NewContext(0), cache, data, nil).Run()
		}
	}
	b.Run("with-cse", func(b *testing.B) { run(b, true) })
	b.Run("without-cse", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationPlanner compares greedy materialization planning
// (Algorithm 1) against the exhaustive exact planner the paper rejects —
// the cost argument for the greedy algorithm.
func BenchmarkAblationPlanner(b *testing.B) {
	// A 14-node chain with an iterative tail: 12 cacheable candidates,
	// still feasible for the exact planner (2^12 subsets).
	g := core.NewGraph()
	cur := g.Source
	for i := 0; i < 12; i++ {
		cur = g.AddTransform(core.TypedTransform("t", func(x float64) float64 { return x + 1 }), cur)
	}
	g.AddApplyModel(g.AddEstimator(benchEst{}, cur, false), cur)
	prof := &optimizer.Profile{Nodes: map[int]*optimizer.NodeProfile{}}
	for _, n := range g.Topological() {
		prof.Nodes[n.ID] = &optimizer.NodeProfile{Name: n.OpName(), Kind: n.Kind, TimeSec: 0.01, SizeBytes: 100}
	}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			optimizer.GreedyCacheSet(g, prof, 500, 1)
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			optimizer.ExactCacheSet(g, prof, 500, 1)
		}
	})
}

type benchEst struct{}

func (benchEst) Name() string { return "bench.est" }
func (benchEst) Weight() int  { return 10 }
func (benchEst) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	for i := 0; i < 10; i++ {
		data()
	}
	return core.IdentityOp()
}

// BenchmarkAblationExactSolverPaths compares the two physical paths
// inside DistributedQR: communication-avoiding TSQR (tall partitions)
// vs distributed normal equations (short partitions).
func BenchmarkAblationExactSolverPaths(b *testing.B) {
	ctx := engine.NewContext(0)
	fetch := func(c *engine.Collection) core.Fetch { return func() *engine.Collection { return c } }
	// Tall partitions (n/parts >= d) take the TSQR path.
	tall := workload.DenseVectors(1024, 64, 4, 1, 4)
	// Short partitions (n/parts < d) fall back to normal equations.
	short := workload.DenseVectors(1024, 64, 4, 1, 32)
	b.Run("tsqr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			(&solvers.DistributedQR{}).Fit(ctx, fetch(tall.Data), fetch(tall.Labels))
		}
	})
	b.Run("normal-equations", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			(&solvers.DistributedQR{}).Fit(ctx, fetch(short.Data), fetch(short.Labels))
		}
	})
}

// BenchmarkAblationSubsampling measures the optimizer's profiling
// overhead as a function of sample size — the cost side of the Section
// 4.1 subsampling design.
func BenchmarkAblationSubsampling(b *testing.B) {
	train := workload.DenseVectors(2000, 32, 4, 9, 8)
	for _, s := range []int{32, 128, 512} {
		s := s
		b.Run(sampleName(s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := core.NewGraph()
				id := g.AddTransform(core.TypedTransform("id", func(x []float64) []float64 { return x }), g.Source)
				g.AddApplyModel(g.AddEstimator(&solvers.LinearSolver{Iterations: 10, Lambda: 1e-4}, id, true), id)
				optimizer.Optimize(g, train.Data, train.Labels, optimizer.Config{
					Level:       optimizer.LevelFull,
					Resources:   cluster.Local(4),
					NumClasses:  4,
					SampleSizes: [2]int{s / 2, s},
				})
			}
		})
	}
}

func sampleName(s int) string {
	switch s {
	case 32:
		return "sample-32"
	case 128:
		return "sample-128"
	default:
		return "sample-512"
	}
}

var _ = cluster.Local
