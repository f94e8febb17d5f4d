package keystone

import (
	"runtime"

	"keystoneml/internal/cluster"
	"keystoneml/internal/engine"
	"keystoneml/internal/optimizer"
)

// Level selects how much of the whole-pipeline optimizer runs at Fit
// time, matching the three configurations compared in the paper's
// Figure 9.
type Level int

const (
	// LevelFull (the default) runs operator-level selection plus the
	// whole-pipeline optimizations — the full KeystoneML configuration.
	LevelFull Level = iota
	// LevelPipeline runs CSE and automatic materialization with default
	// physical operators ("Pipe Only").
	LevelPipeline
	// LevelNone executes default operators with no caching at all — the
	// unoptimized baseline.
	LevelNone
)

func (l Level) internal() optimizer.Level {
	switch l {
	case LevelNone:
		return optimizer.LevelNone
	case LevelPipeline:
		return optimizer.LevelPipeline
	default:
		return optimizer.LevelFull
	}
}

// CachePolicy selects how intermediate results are kept during Fit.
type CachePolicy int

const (
	// CacheAuto (the default) pins exactly the materialization set the
	// optimizer's greedy planner chooses under the cache budget.
	CacheAuto CachePolicy = iota
	// CacheLRU keeps intermediates under the budget with
	// least-recently-used eviction (a Spark-style baseline).
	CacheLRU
	// CacheNone disables materialization entirely: every re-access
	// recomputes.
	CacheNone
)

// modeledNodes is the cluster size the operator cost models price every
// fit against, wherever its partitions live.
const modeledNodes = 8

// fitConfig is the resolved option set for one Fit call.
type fitConfig struct {
	level       Level
	cachePolicy CachePolicy
	cacheBudget int64
	workers     int
	partitions  int
	numClasses  int
	sampleSizes [2]int
	prefix      *PrefixCache
}

func defaultFitConfig() fitConfig {
	return fitConfig{
		level:       LevelFull,
		cachePolicy: CacheAuto,
		workers:     0, // NumCPU
	}
}

// partitionsAt resolves the partition count of the training data — the
// one input a fit derives from where it runs: one partition per CPU in
// this process, two per worker behind a remote placement, so that every
// worker holds work after round-robin placement. engine.FromSlice caps it
// at the record count. A model is bit-identical across placements only
// under equal partitioning; WithPartitions pins it.
func (c fitConfig) partitionsAt(site Site) int {
	switch {
	case c.partitions > 0:
		return c.partitions
	case site.Placement != nil:
		return 2 * site.Model.Workers
	default:
		return runtime.NumCPU()
	}
}

// Option configures a Fit call; see the With* constructors.
type Option func(*fitConfig)

// WithOptimizerLevel selects the optimizer configuration (default
// LevelFull).
func WithOptimizerLevel(l Level) Option {
	return func(c *fitConfig) { c.level = l }
}

// WithWorkers bounds execution parallelism: both the partition workers of
// the dataflow engine and the DAG scheduler's worker pool. 0 (the
// default) uses NumCPU; 1 selects the sequential depth-first executor,
// whose recompute counts are deterministic.
func WithWorkers(n int) Option {
	return func(c *fitConfig) { c.workers = n }
}

// WithPartitions fixes the number of partitions training data is split
// into (default: NumCPU, capped by the record count).
func WithPartitions(n int) Option {
	return func(c *fitConfig) { c.partitions = n }
}

// WithCacheBudget bounds the bytes of intermediate state kept in memory
// during Fit; 0 (the default) means unlimited.
func WithCacheBudget(bytes int64) Option {
	return func(c *fitConfig) { c.cacheBudget = bytes }
}

// WithCachePolicy selects the materialization strategy (default
// CacheAuto).
func WithCachePolicy(p CachePolicy) Option {
	return func(c *fitConfig) { c.cachePolicy = p }
}

// WithNumClasses declares the label class count for the solver cost
// models; by default it is inferred from the label vector width.
func WithNumClasses(k int) Option {
	return func(c *fitConfig) { c.numClasses = k }
}

// WithSampleSizes sets the two nested profiling sample sizes s1 < s2 the
// optimizer uses for linear extrapolation; they are used verbatim. The
// default is data-proportional: for n training records
// s2 = min(512, max(64, n/8)) and s1 = s2/2, both at most n, so profiling
// costs about an eighth of a pass over small data and the fixed 256/512
// from n = 4096 up. FitInfo.SampleSizes reports the sizes a fit used.
func WithSampleSizes(s1, s2 int) Option {
	return func(c *fitConfig) { c.sampleSizes = [2]int{s1, s2} }
}

// optimizerConfig lowers the resolved options, and the cost model of a
// placed fit's site, onto the internal optimizer.
func (c fitConfig) optimizerConfig(classes int, site Site) optimizer.Config {
	cfg := optimizer.Config{
		Level:          c.level.internal(),
		Resources:      cluster.Local(modeledNodes),
		MemBudgetBytes: c.budgetForPlanner(),
		NumClasses:     classes,
		SampleSizes:    c.sampleSizes,
		Parallelism:    c.workers,
	}
	if site.Placement != nil {
		cfg.Dist = &site.Model
	}
	return cfg
}

// budgetForPlanner feeds the cache budget to the greedy materialization
// planner only when the pinned-set policy will actually enforce it.
func (c fitConfig) budgetForPlanner() int64 {
	if c.cachePolicy == CacheAuto {
		return c.cacheBudget
	}
	return 0
}

// cache builds the cache manager the executor runs with.
func (c fitConfig) cache(plan *optimizer.Plan) *engine.CacheManager {
	switch c.cachePolicy {
	case CacheNone:
		return nil
	case CacheLRU:
		return engine.NewCacheManager(c.cacheBudget, engine.NewLRUPolicy())
	default:
		return plan.DefaultCache(c.cacheBudget)
	}
}
