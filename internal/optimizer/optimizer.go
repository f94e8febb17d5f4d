package optimizer

import (
	"context"
	"runtime"
	"time"

	"keystoneml/internal/cluster"
	"keystoneml/internal/core"
	"keystoneml/internal/engine"
)

// Level selects how much of the optimizer runs, matching the three
// configurations compared in Figure 9.
type Level int

const (
	// LevelNone executes default physical operators with no caching at
	// all — the unoptimized baseline.
	LevelNone Level = iota
	// LevelPipeline enables whole-pipeline optimizations only (CSE +
	// automatic materialization) with default physical operators
	// ("Pipe Only" in Figure 9).
	LevelPipeline
	// LevelFull adds operator-level selection on top of the
	// whole-pipeline optimizations (the full "KeystoneML" configuration).
	LevelFull
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelPipeline:
		return "pipe-only"
	default:
		return "keystoneml"
	}
}

// Config parameterizes optimization.
type Config struct {
	Level     Level
	Resources cluster.Resources
	// MemBudgetBytes is the cluster-wide cache budget for automatic
	// materialization; zero means unlimited.
	MemBudgetBytes int64
	// NumClasses feeds k into the solver cost models.
	NumClasses int
	// SampleSizes are the two nested profiling sample sizes |S1| < |S2|
	// used for linear extrapolation. A zero size takes the
	// data-proportional default (see samples); explicit sizes are used
	// verbatim.
	SampleSizes [2]int
	// Parallelism bounds the execution context (partition workers) and
	// the executor's DAG-level worker pool; 0 = NumCPU, 1 = the
	// sequential depth-first oracle.
	Parallelism int
	// Dist holds the cluster terms of the remote placement the plan will
	// execute behind (Plan.Placement); nil means this process. The
	// profile supplies its transfer sizes (Profile.Dist), and the DAG walk
	// it prices is the sequential one whatever Parallelism says.
	Dist *core.DistModel
}

// samples resolves the profiling sample sizes for an n-record dataset.
// The default is s2 = min(512, max(64, n/8)) and s1 = s2/2, both at most
// n: profiling touches about an eighth of the data at any n, and at
// n ≥ 4096 the sizes are the fixed 256/512 (the paper uses 512/1024).
func (c Config) samples(n int) (int, int) {
	s1, s2 := c.SampleSizes[0], c.SampleSizes[1]
	if s2 <= 0 {
		s2 = min(n, 512, max(64, n/8))
	}
	if s1 <= 0 {
		s1 = max(s2/2, min(s2, 1))
	}
	if s2 < s1 {
		s1, s2 = s2, s1
	}
	return s1, s2
}

// Plan is an optimized physical execution plan: the (possibly rewritten)
// graph, the chosen physical implementation per optimizable node, the
// materialization set, the shared schedule plan behind it, and the
// profile that justified those choices.
type Plan struct {
	// Graph is the logical plan after CSE and operator substitution: the
	// graph a fitted pipeline is built from and persists. Execute runs
	// its fit graph instead when chains fuse (see fuseFit); the fit
	// graph keeps Graph's node IDs, so the models, profile and cache set
	// key Graph's nodes.
	Graph *core.Graph
	// fit is the fit graph, nil when nothing fuses.
	fit       *core.Graph
	Chosen    map[int]string // node ID -> selected physical operator name
	CacheSet  []int          // node IDs to materialize
	Profile   *Profile
	Level     Level
	CSEMerged int
	// Schedule is the shared schedule plan the materialization set was
	// chosen under (profile times, cache boundaries, worker count).
	// Execute threads it into the executor, whose priority dispatcher
	// then works from the same model the planner costed; nil when
	// profiling did not run (LevelNone).
	Schedule *core.SchedulePlan
	// Placement, when non-nil, is where Execute runs the plan's
	// record-wise operators instead of this process; the executor then
	// walks sequentially (core.Executor.SetPlacement).
	Placement core.Placement
	// Shared, when non-nil, attaches a cross-fit shared prefix cache at
	// execution time: nodes of this plan's graph that carry a content
	// signature (core.PrefixSignatures under SharedScope) consult and
	// fill it, so concurrent fits of pipelines sharing a prefix reuse
	// each other's materialized intermediates. The caller owns the
	// cache's data-identity scope (see core.PrefixSignatures);
	// SharedScope must identify the training data bound at Execute time.
	Shared      *engine.CacheManager
	SharedScope string
	// OptimizeTime is the total optimization overhead (sampling +
	// profiling + planning), Figure 9's "Optimize" stage.
	OptimizeTime time.Duration
}

// Optimize builds a physical plan for graph g over the given training
// data. It mutates g in place (operator substitution, CSE dep rewrites)
// and returns the plan; at LevelNone it returns an empty plan immediately.
// It panics where OptimizeContext returns an error.
func Optimize(g *core.Graph, data, labels *engine.Collection, cfg Config) *Plan {
	plan, err := OptimizeContext(context.Background(), g, data, labels, cfg)
	if err != nil {
		panic(err)
	}
	return plan
}

// OptimizeContext is Optimize bound to a context: the profiling run polls
// ctx as a fit does (see core.Executor.RunContext), so a canceled Fit does
// not sit through profiling first. On cancellation the (partially
// rewritten) plan is discarded and the context error is returned.
func OptimizeContext(ctx context.Context, g *core.Graph, data, labels *engine.Collection, cfg Config) (*Plan, error) {
	plan := &Plan{Graph: g, Chosen: map[int]string{}, Level: cfg.Level}
	if cfg.Level == LevelNone {
		return plan, nil
	}
	start := time.Now()
	plan.CSEMerged = CSE(g)
	// Fusion comes before profiling, so the profile prices the fused
	// operators the fit will run.
	plan.fit = fuseFit(g)
	fg := plan.runGraph()
	prof, chosen, err := profile(ctx, fg, data, labels, cfg)
	if err != nil {
		return nil, err
	}
	if fg != g {
		// Operator substitution rewrote the fit graph's nodes; the
		// logical plan takes the same physical operators.
		for id := range chosen {
			g.Nodes[id].Transform, g.Nodes[id].Estimator = fg.Nodes[id].Transform, fg.Nodes[id].Estimator
		}
	}
	plan.Profile, plan.Chosen = prof, chosen
	prof.place(cfg.Dist)
	// The materialization set is chosen under the schedule the executor
	// will actually run: the k-worker makespan model (sequential Σ t·c
	// when k = 1) with the placement's terms, and the resulting schedule
	// plan is carried on the Plan so Execute hands the very same model to
	// the dispatcher.
	workers := cfg.execWorkers()
	plan.CacheSet = GreedyCacheSet(fg, prof, cfg.MemBudgetBytes, workers)
	plan.Schedule = ScheduleFor(fg, prof, plan.CacheSet, workers)
	plan.OptimizeTime = time.Since(start)
	return plan, nil
}

// runGraph is the graph Execute runs: the fit graph when chains fuse,
// the logical plan otherwise.
func (p *Plan) runGraph() *core.Graph {
	if p.fit != nil {
		return p.fit
	}
	return p.Graph
}

// execWorkers resolves the DAG-level worker count: Parallelism the way
// the engine context resolves it (non-positive means one per CPU), and
// one behind a remote placement, which walks sequentially.
func (c Config) execWorkers() int {
	if c.Dist != nil {
		return 1
	}
	if c.Parallelism <= 0 {
		return runtime.NumCPU()
	}
	return c.Parallelism
}

// Execute runs the plan over the full training data: a pinned-set cache
// manager holds exactly the materialization set, and the executor
// recomputes everything else on demand. parallelism sizes both the
// partition workers and the executor's stage-aware DAG scheduler
// (0 = NumCPU); parallelism 1 selects the sequential depth-first oracle,
// which the equivalence tests use as the reference semantics. It panics
// where ExecuteContext returns an error.
func (p *Plan) Execute(data, labels *engine.Collection, parallelism int) (map[int]core.TransformOp, *engine.Collection, *core.ExecReport) {
	models, out, report, err := p.ExecuteContext(context.Background(), data, labels, parallelism, p.DefaultCache(0))
	if err != nil {
		panic(err)
	}
	return models, out, report
}

// DefaultCache builds the plan's canonical cache manager: a pinned set
// holding exactly the materialization set under the given byte budget
// (non-positive = unlimited). It returns nil — no caching at all — when
// the plan materializes nothing.
func (p *Plan) DefaultCache(budget int64) *engine.CacheManager {
	if p.Level == LevelNone || len(p.CacheSet) == 0 {
		return nil
	}
	return engine.NewCacheManager(budget, engine.NewPinnedSetPolicy(core.CacheKeys(p.CacheSet)))
}

// ExecuteContext is Execute bound to a context and an explicit cache
// manager (nil disables materialization; use DefaultCache for the plan's
// pinned set). The executor gets the plan's schedule, shared prefix cache
// and placement, whichever are set. Cancellation mid-fit, or a failing
// placement, returns the error along with the partial execution report.
func (p *Plan) ExecuteContext(ctx context.Context, data, labels *engine.Collection, parallelism int, cache *engine.CacheManager) (map[int]core.TransformOp, *engine.Collection, *core.ExecReport, error) {
	g := p.runGraph()
	ex := core.NewExecutor(g, engine.NewContext(parallelism), cache, data, labels)
	if p.Schedule != nil {
		ex.SetSchedulePlan(p.Schedule)
	}
	if p.Shared != nil {
		ex.SetSharedCache(p.Shared, core.PrefixSignatures(g, p.SharedScope))
	}
	if p.Placement != nil {
		ex.SetPlacement(p.Placement)
	}
	return ex.RunContext(ctx)
}
