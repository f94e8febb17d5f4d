package experiments

import (
	"fmt"
	"io"
	"time"

	"keystoneml/internal/cluster"
	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/optimizer"
	"keystoneml/internal/workload"
	"keystoneml/keystone"
)

// cachingSpec builds the two-branch (SIFT + LCS) VOC/ImageNet pipeline
// used by Figures 10 and 11. The gather of two descriptor branches, each
// with an iterative GMM downstream, creates the interleaved reuse pattern
// where caching policy actually matters: recomputing one branch can evict
// the other's reused intermediates.
func cachingSpec(scale Scale) (func() *core.Graph, workload.Labeled) {
	train := imageDatasetForCaching(scale)
	build := func() *core.Graph {
		return graphOf(keystone.VisionPipeline(keystone.VisionConfig{
			PCADims: 12, GMMComponents: 24, SampleDescs: 10, Seed: 9, Iterations: 25,
			WithLCS: true,
		}).EngineGraph())
	}
	return build, train
}

// Figure10 compares the KeystoneML greedy materialization strategy
// against LRU and the rule-based "cache model applications" baseline
// across memory budgets, measuring actual execution time of the VOC
// pipeline under each policy. Expected shape: KeystoneML is at least as
// good everywhere, degrades gracefully as memory shrinks, and the
// baselines each lose somewhere (LRU admits huge unreused objects;
// rule-based misses reused featurized data).
func Figure10(w io.Writer, scale Scale) {
	header(w, "Figure 10: caching strategy vs memory budget (VOC pipeline)")
	build, train := cachingSpec(scale)

	// Profile once (full optimization) to get sizes + the greedy planner.
	gProf := build()
	cfg := optimizer.Config{
		Level:       optimizer.LevelPipeline,
		Resources:   cluster.Local(8),
		NumClasses:  train.Classes,
		SampleSizes: [2]int{16, 32},
		// Parallelism 1 pins the planner to the paper's sequential cost
		// model: these figures replicate the paper's recompute-on-miss
		// accounting and execute under the sequential oracle, so the
		// cache sets must not depend on the host's core count.
		Parallelism: 1,
	}
	planFull := optimizer.Optimize(gProf, train.Data, train.Labels, cfg)
	var maxBytes int64
	for _, np := range planFull.Profile.Nodes {
		maxBytes += np.SizeBytes
	}
	budgets := []float64{0.01, 0.03, 0.1, 0.3, 1.0}
	fmt.Fprintf(w, "total intermediate size estimate: %.1f MB\n", float64(maxBytes)/1e6)
	fmt.Fprintf(w, "%10s %14s %14s %14s\n", "budget", "keystoneml", "lru", "rule-based")

	// All three strategies run under the sequential oracle (workers=1):
	// this figure reproduces the paper's recompute-on-miss cost model,
	// whose access patterns the parallel scheduler legitimately changes
	// by coalescing shared branches.
	for _, frac := range budgets {
		budget := int64(float64(maxBytes) * frac)
		times := make(map[string]time.Duration)

		// KeystoneML greedy pinned set, re-planned for this budget.
		{
			g := build()
			c := cfg
			c.MemBudgetBytes = budget
			plan := optimizer.Optimize(g, train.Data, train.Labels, c)
			var cache *engine.CacheManager
			if len(plan.CacheSet) > 0 {
				cache = engine.NewCacheManager(0, engine.NewPinnedSetPolicy(core.CacheKeys(plan.CacheSet)))
			}
			ex := core.NewExecutor(plan.Graph, engine.NewContext(0), cache, train.Data, train.Labels).SetWorkers(1)
			times["keystone"] = timeIt(func() { ex.Run() })
		}
		// LRU with the same budget.
		{
			g := build()
			cache := engine.NewCacheManager(budget, engine.NewLRUPolicy())
			ex := core.NewExecutor(g, engine.NewContext(0), cache, train.Data, train.Labels).SetWorkers(1)
			times["lru"] = timeIt(func() { ex.Run() })
		}
		// Rule-based: only model-application outputs are admitted.
		{
			g := build()
			policy := engine.NewRuleBasedPolicy(core.CacheKeys(optimizer.ApplyModelIDs(g)))
			cache := engine.NewCacheManager(budget, policy)
			ex := core.NewExecutor(g, engine.NewContext(0), cache, train.Data, train.Labels).SetWorkers(1)
			times["rule"] = timeIt(func() { ex.Run() })
		}
		fmt.Fprintf(w, "%9.0f%% %14s %14s %14s\n",
			frac*100, secs(times["keystone"]), secs(times["lru"]), secs(times["rule"]))
	}
}

// Figure11 prints which nodes the greedy strategy chooses to materialize
// at a large and a small budget on the VOC pipeline, reproducing the
// paper's observation: with plenty of memory it caches the reused
// featurization outputs, and under pressure it falls back to the small
// late-pipeline outputs.
func Figure11(w io.Writer, scale Scale) {
	header(w, "Figure 11: greedy cache-set selection vs memory budget (VOC pipeline)")
	build, train := cachingSpec(scale)
	g := build()
	cfg := optimizer.Config{
		Level:       optimizer.LevelPipeline,
		Resources:   cluster.Local(8),
		NumClasses:  train.Classes,
		SampleSizes: [2]int{16, 32},
		// Parallelism 1 pins the planner to the paper's sequential cost
		// model: these figures replicate the paper's recompute-on-miss
		// accounting and execute under the sequential oracle, so the
		// cache sets must not depend on the host's core count.
		Parallelism: 1,
	}
	plan := optimizer.Optimize(g, train.Data, train.Labels, cfg)
	var total int64
	for _, np := range plan.Profile.Nodes {
		total += np.SizeBytes
	}
	for _, frac := range []float64{1.0, 0.01} {
		budget := int64(float64(total) * frac)
		set := optimizer.GreedyCacheSet(g, plan.Profile, budget, 1)
		fmt.Fprintf(w, "budget %4.0f%% (%6.1f MB): cached nodes:\n", frac*100, float64(budget)/1e6)
		if len(set) == 0 {
			fmt.Fprintln(w, "    (none)")
		}
		for _, id := range set {
			np := plan.Profile.Nodes[id]
			fmt.Fprintf(w, "    #%-3d %-40s size=%8.2fMB t=%7.3fs\n",
				id, np.Name, float64(np.SizeBytes)/1e6, np.TimeSec)
		}
	}
}
