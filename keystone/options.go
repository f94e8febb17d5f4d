package keystone

import (
	"runtime"

	"keystoneml/internal/cluster"
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

// modeledNodes is the cluster size the operator cost models price every
// fit against, wherever its partitions live.
const modeledNodes = 8

// fitConfig is the resolved option set for one Fit call.
type fitConfig struct {
	level       Level
	cacheBudget int64
	workers     int
	partitions  int
	numClasses  int
	prefix      *PrefixCache
}

func defaultFitConfig() fitConfig {
	return fitConfig{
		level:   LevelFull,
		workers: 0, // NumCPU
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
// during Fit; 0 (the default) means unlimited. The planner pins the node
// outputs worth most under the budget (Algorithm 1), and a fit keeps
// exactly those: every other re-access recomputes.
func WithCacheBudget(bytes int64) Option {
	return func(c *fitConfig) { c.cacheBudget = bytes }
}

// WithNumClasses declares the label class count for the solver cost
// models; by default it is inferred from the label vector width.
func WithNumClasses(k int) Option {
	return func(c *fitConfig) { c.numClasses = k }
}

// optimizerConfig lowers the resolved options, and the cost model of a
// placed fit's site, onto the internal optimizer.
func (c fitConfig) optimizerConfig(classes int, site Site) optimizer.Config {
	cfg := optimizer.Config{
		Level:          c.level.internal(),
		Resources:      cluster.Local(modeledNodes),
		MemBudgetBytes: c.cacheBudget,
		NumClasses:     classes,
		Parallelism:    c.workers,
	}
	if site.Placement != nil {
		cfg.Dist = &site.Model
	}
	return cfg
}
