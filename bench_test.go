// Package keystoneml's top-level benchmarks regenerate every table and
// figure of the paper's evaluation section as testing.B benchmarks:
//
//	go test -bench=. -benchmem
//
// Each benchmark wraps the corresponding experiment from
// internal/experiments at Quick scale; run cmd/keybench for the
// formatted tables (and -scale full for sharper ratios).
package keystoneml_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	"keystoneml/internal/baselines"
	"keystoneml/internal/cluster"
	"keystoneml/internal/conv"
	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/experiments"
	"keystoneml/internal/image"
	"keystoneml/internal/linalg"
	"keystoneml/internal/optimizer"
	"keystoneml/internal/pca"
	"keystoneml/internal/solvers"
	"keystoneml/internal/workload"
	"keystoneml/keystone"
)

// BenchmarkTable1SolverCostModels evaluates the analytic Table 1 cost
// models (pure computation; verifies they are cheap enough to run inside
// the optimizer's inner loop).
func BenchmarkTable1SolverCostModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(io.Discard)
	}
}

// BenchmarkFig6Solvers — one solver fit per Table 1 physical
// implementation on the Figure 6 sparse workload shape.
func BenchmarkFig6Solvers(b *testing.B) {
	sparse := workload.SparseVectors(800, 512, 8, 2, 42, 8)
	dense := workload.DenseVectors(600, 256, 8, 43, 8)
	ctx := engine.NewContext(0)
	fetch := func(c *engine.Collection) core.Fetch { return func() *engine.Collection { return c } }
	b.Run("lbfgs-sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			(&solvers.LBFGS{Iterations: 20}).Fit(ctx, fetch(sparse.Data), fetch(sparse.Labels))
		}
	})
	b.Run("block-sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			(&solvers.BlockSolver{BlockSize: 128, Sweeps: 2}).Fit(ctx, fetch(sparse.Data), fetch(sparse.Labels))
		}
	})
	b.Run("exact-dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			(&solvers.DistributedQR{}).Fit(ctx, fetch(dense.Data), fetch(dense.Labels))
		}
	})
	b.Run("block-dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			(&solvers.BlockSolver{BlockSize: 64, Sweeps: 2}).Fit(ctx, fetch(dense.Data), fetch(dense.Labels))
		}
	})
	b.Run("lbfgs-dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			(&solvers.LBFGS{Iterations: 20}).Fit(ctx, fetch(dense.Data), fetch(dense.Labels))
		}
	})
}

// BenchmarkTable2PCA — the four PCA physical implementations on one
// Table 2 grid cell.
func BenchmarkTable2PCA(b *testing.B) {
	data := workload.DenseVectors(1000, 64, 4, 77, 8).Data
	ctx := engine.NewContext(0)
	fetch := func() *engine.Collection { return data }
	for _, v := range []struct {
		name string
		est  core.EstimatorOp
	}{
		{"local-svd", &pca.LocalSVD{K: 8}},
		{"local-tsvd", &pca.LocalTSVD{K: 8, Iters: 2}},
		{"dist-svd", &pca.DistSVD{K: 8}},
		{"dist-tsvd", &pca.DistTSVD{K: 8, Iters: 2}},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v.est.Fit(ctx, fetch, nil)
			}
		})
	}
}

// BenchmarkFig7Convolution — the three convolution strategies at a small
// and a large filter size.
func BenchmarkFig7Convolution(b *testing.B) {
	rng := linalg.NewRNG(5)
	im := image.New(96, 96, 3)
	for i := range im.Pix {
		im.Pix[i] = rng.Gaussian()
	}
	for _, k := range []int{3, 11} {
		bank := conv.SeparableFilterBank(k, 3, 16, linalg.NewRNG(uint64(k)))
		for _, s := range []conv.Strategy{conv.Separable{}, conv.BLAS{}, conv.FFT{}} {
			b.Run(s.Name()+"-k"+string(rune('0'+k/10))+string(rune('0'+k%10)), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s.Convolve(im, bank)
				}
			})
		}
	}
}

// BenchmarkFig8Systems — KeystoneML's chosen solver vs the VW-like and
// SystemML-like fixed strategies on a sparse problem.
func BenchmarkFig8Systems(b *testing.B) {
	l := workload.SparseVectors(800, 512, 8, 2, 77, 8)
	ctx := engine.NewContext(0)
	fetch := func(c *engine.Collection) core.Fetch { return func() *engine.Collection { return c } }
	b.Run("keystoneml", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			(&solvers.LBFGS{Iterations: 20}).Fit(ctx, fetch(l.Data), fetch(l.Labels))
		}
	})
	b.Run("vowpalwabbit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			(&baselines.VowpalWabbit{Passes: 20}).Fit(ctx, fetch(l.Data), fetch(l.Labels))
		}
	})
	b.Run("systemml", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			(&baselines.SystemML{Iterations: 10}).Fit(ctx, fetch(l.Data), fetch(l.Labels))
		}
	})
}

// BenchmarkFig9OptLevels — end-to-end text pipeline under the three
// optimization levels of Figure 9.
func BenchmarkFig9OptLevels(b *testing.B) {
	train := workload.AmazonReviews(250, 1, 8)
	for _, level := range []optimizer.Level{optimizer.LevelNone, optimizer.LevelPipeline, optimizer.LevelFull} {
		b.Run(level.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, _ := keystone.TextPipeline(keystone.TextConfig{NumFeatures: 1000, Iterations: 15}).EngineGraph()
				plan := optimizer.Optimize(g, train.Data, train.Labels, optimizer.Config{
					Level:       level,
					Resources:   cluster.Local(8),
					NumClasses:  2,
					SampleSizes: [2]int{16, 32},
				})
				plan.Execute(train.Data, train.Labels, 0)
			}
		})
	}
}

// BenchmarkFig10Caching — the branching vision pipeline under each cache
// policy at a tight budget.
func BenchmarkFig10Caching(b *testing.B) {
	train := workload.Images(24, 48, 3, 4, 40, 4)
	build := func() *core.Graph {
		g, _ := keystone.VisionPipeline(keystone.VisionConfig{
			PCADims: 8, GMMComponents: 8, SampleDescs: 15, Seed: 9, Iterations: 15, WithLCS: true,
		}).EngineGraph()
		return g
	}
	const budget = 256 << 10
	b.Run("keystoneml", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := build()
			plan := optimizer.Optimize(g, train.Data, train.Labels, optimizer.Config{
				Level: optimizer.LevelPipeline, Resources: cluster.Local(8),
				NumClasses: 4, MemBudgetBytes: budget, SampleSizes: [2]int{6, 12},
			})
			plan.Execute(train.Data, train.Labels, 0)
		}
	})
	b.Run("lru", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := build()
			cache := engine.NewCacheManager(budget, engine.NewLRUPolicy())
			core.NewExecutor(g, engine.NewContext(0), cache, train.Data, train.Labels).Run()
		}
	})
	b.Run("rule-based", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := build()
			policy := engine.NewRuleBasedPolicy(core.CacheKeys(optimizer.ApplyModelIDs(g)))
			cache := engine.NewCacheManager(budget, policy)
			core.NewExecutor(g, engine.NewContext(0), cache, train.Data, train.Labels).Run()
		}
	})
	b.Run("none", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := build()
			core.NewExecutor(g, engine.NewContext(0), nil, train.Data, train.Labels).Run()
		}
	})
}

// BenchmarkFig11GreedyPlanner — planning cost of the greedy
// materialization algorithm itself (Algorithm 1), which the paper argues
// must be cheap enough to run at optimization time (unlike an ILP).
func BenchmarkFig11GreedyPlanner(b *testing.B) {
	train := workload.Images(16, 48, 3, 4, 40, 4)
	g, _ := keystone.VisionPipeline(keystone.VisionConfig{
		PCADims: 8, GMMComponents: 8, SampleDescs: 15, Seed: 9, Iterations: 15, WithLCS: true,
	}).EngineGraph()
	plan := optimizer.Optimize(g, train.Data, train.Labels, optimizer.Config{
		Level: optimizer.LevelPipeline, Resources: cluster.Local(8),
		NumClasses: 4, SampleSizes: [2]int{6, 12},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		optimizer.GreedyCacheSet(g, plan.Profile, 1<<20, 1)
	}
}

// BenchmarkFig12ScalingModel and BenchmarkTable6ScalingModel evaluate the
// analytic scale-out models.
func BenchmarkFig12ScalingModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range []int{8, 16, 32, 64, 128} {
			baselines.FigureTwelveModel("Amazon", cluster.R3_4XLarge(n))
			baselines.FigureTwelveModel("TIMIT", cluster.R3_4XLarge(n))
			baselines.FigureTwelveModel("ImageNet", cluster.R3_4XLarge(n))
		}
	}
}

func BenchmarkTable6ScalingModel(b *testing.B) {
	tf := baselines.CIFARDefaults()
	ks := baselines.CIFARKeystoneDefaults()
	for i := 0; i < b.N; i++ {
		for _, n := range []int{1, 2, 4, 8, 16, 32} {
			tf.StrongScaleMinutes(n)
			tf.WeakScaleMinutes(n)
			ks.Minutes(n)
		}
	}
}

// BenchmarkTable5Pipelines — full optimized training of the text pipeline
// (the Table 5 representative kept benchmark-sized).
func BenchmarkTable5Pipelines(b *testing.B) {
	train := workload.AmazonReviews(250, 1, 8)
	for i := 0; i < b.N; i++ {
		g, _ := keystone.TextPipeline(keystone.TextConfig{NumFeatures: 1000, Iterations: 15}).EngineGraph()
		plan := optimizer.Optimize(g, train.Data, train.Labels, optimizer.Config{
			Level: optimizer.LevelFull, Resources: cluster.Local(8),
			NumClasses: 2, SampleSizes: [2]int{16, 32},
		})
		plan.Execute(train.Data, train.Labels, 0)
	}
}

// BenchmarkParallelDAG compares the sequential depth-first oracle
// against the stage-aware parallel scheduler on a multi-branch pipeline
// whose branch operators carry per-record latency (modeling remote/cold
// reads in the distributed engine the package stands in for). The
// scheduler's win is overlapping independent branches: expected speedup
// tracks the fan-out width for latency-bound branches and the core count
// for CPU-bound ones.
func BenchmarkParallelDAG(b *testing.B) {
	for _, k := range []int{2, 4} {
		cfg := experiments.FanoutConfig{
			Branches: k, Records: 8, Dim: 16, Partitions: 1,
			BranchLatency: 2 * time.Millisecond, Iterations: 3,
		}
		for _, mode := range []struct {
			name    string
			workers int
		}{
			{"sequential", 1},
			{"parallel", k},
		} {
			b.Run(fmt.Sprintf("%d-branch/%s", k, mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					g, train := experiments.BuildFanout(cfg)
					// Constant context: partition-level parallelism is
					// identical in both modes, so the delta is the DAG
					// scheduler's alone.
					ctx := engine.NewContext(k)
					core.NewExecutor(g, ctx, nil, train.Data, train.Labels).
						SetWorkers(mode.workers).Run()
				}
			})
		}
	}
}

// BenchmarkParallelVOC runs the two-branch (SIFT+LCS) vision pipeline —
// the real multi-branch evaluation DAG — under both schedulers. On a
// single-core host the CPU-bound branches cannot overlap and this
// documents the scheduler's overhead floor instead.
func BenchmarkParallelVOC(b *testing.B) {
	train := workload.Images(12, 48, 3, 4, 40, 2)
	build := func() *core.Graph {
		g, _ := keystone.VisionPipeline(keystone.VisionConfig{
			PCADims: 8, GMMComponents: 6, SampleDescs: 10, Seed: 9, Iterations: 5, WithLCS: true,
		}).EngineGraph()
		return g
	}
	for _, mode := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", 4},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := engine.NewContext(4) // constant: isolate the DAG scheduler
				core.NewExecutor(build(), ctx, nil, train.Data, train.Labels).
					SetWorkers(mode.workers).Run()
			}
		})
	}
}

// BenchmarkEngineAggregate measures the treeAggregate primitive the
// distributed solvers are built on.
func BenchmarkEngineAggregate(b *testing.B) {
	items := make([]any, 10000)
	for i := range items {
		items[i] = float64(i)
	}
	c := engine.FromSlice(items, 16)
	ctx := engine.NewContext(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Aggregate(c,
			func() any { return 0.0 },
			func(acc, item any) any { return acc.(float64) + item.(float64) },
			func(a, bb any) any { return a.(float64) + bb.(float64) },
		)
	}
}

// BenchmarkGEMM measures the blocked matrix multiply substrate.
func BenchmarkGEMM(b *testing.B) {
	rng := linalg.NewRNG(1)
	x := rng.GaussianMatrix(256, 256)
	y := rng.GaussianMatrix(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Mul(y)
	}
}
