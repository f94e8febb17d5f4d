package keystone

import (
	"context"
	"fmt"
	"sort"
	"time"

	"keystoneml/internal/cluster"
	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
	"keystoneml/internal/optimizer"
)

// Fit trains the pipeline on records (with one-hot label vectors for
// supervised pipelines; nil for unsupervised) and returns the fitted
// artifact. The pipeline itself is not mutated — optimization rewrites a
// private clone of the DAG — so the same Pipeline value can be fit again
// with different data or options.
//
// ctx cancels the whole call cooperatively: profiling, estimator fits
// (mid-pass, between partition dispatches), and the DAG schedulers all
// poll it, and errors.Is(err, context.Canceled) (or DeadlineExceeded)
// reports why a canceled Fit stopped.
func (p *Pipeline[I, O]) Fit(ctx context.Context, records []I, labels [][]float64, opts ...Option) (*Fitted[I, O], error) {
	return FitPlaced(ctx, p, records, labels, Site{}, opts...)
}

// FitPlaced is Fit with the training partitions living at site: the one
// front-end behind Pipeline.Fit (the zero Site, this process) and
// keystone/dist's Fit (worker processes). Validation, boxing,
// optimization, the executor's walk and the returned Fitted — its
// serving context included — are the same code for both; the site
// supplies the placement the walk dispatches through, the cost terms the
// planner prices it with, and the default partition count.
func FitPlaced[I, O any](ctx context.Context, p *Pipeline[I, O], records []I, labels [][]float64, site Site, opts ...Option) (fitted *Fitted[I, O], err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("keystone: Fit requires at least one training record")
	}
	if labels != nil && len(labels) != len(records) {
		return nil, fmt.Errorf("keystone: %d records but %d labels", len(records), len(labels))
	}
	// Optimize and train a private clone; p's DAG stays pristine.
	g := p.g.Clone()
	g.Sink = g.Nodes[p.out.ID]
	if labels == nil && g.Reachable()[g.Labels.ID] {
		return nil, fmt.Errorf("keystone: pipeline contains a supervised estimator but Fit was called with nil labels")
	}
	// The public boundary converts internal panics (operator type
	// mismatches, user NewOp functions panicking on a record) into
	// errors instead of crashing the caller.
	defer func() {
		if r := recover(); r != nil {
			fitted, err = nil, fmt.Errorf("keystone: fit panicked: %v", r)
		}
	}()
	cfg := defaultFitConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	// Kernel dispatch is process-global (the linalg registry is shared):
	// install the measured crossover Auto dispatch consults, cached after
	// the first Fit in the process.
	cluster.InstallKernelCrossover()
	// Kernel tile fan-out shares the engine's worker budget so nested
	// parallelism degrades to serial instead of oversubscribing.
	linalg.SetKernelParallelism(engine.NewContext(cfg.workers).Parallelism)
	classes := cfg.numClasses
	if classes == 0 && len(labels) > 0 {
		classes = len(labels[0])
	}

	parts := cfg.partitionsAt(site)
	boxed := make([]any, len(records))
	for i, r := range records {
		boxed[i] = r
	}
	data := engine.FromSlice(boxed, parts)
	var lab *engine.Collection
	if labels != nil {
		boxedLab := make([]any, len(labels))
		for i, l := range labels {
			boxedLab[i] = l
		}
		lab = engine.FromSlice(boxedLab, parts)
	}

	// Logical operator names, captured before operator substitution
	// rewrites the nodes in place, so FitInfo can report
	// logical -> physical.
	logical := make(map[int]string, len(g.Nodes))
	for _, n := range g.Nodes {
		logical[n.ID] = n.OpName()
	}

	plan, err := optimizer.OptimizeContext(ctx, g, data, lab, cfg.optimizerConfig(classes, site))
	if err != nil {
		return nil, fmt.Errorf("keystone: optimize: %w", err)
	}
	plan.Placement = site.Placement
	if cfg.prefix != nil {
		// Scope the shared keys by the training data shape: equal-data
		// fits (the PrefixCache contract) key identically, while a cache
		// mistakenly reused across differently sized or differently
		// partitioned data degrades to zero sharing instead of serving
		// wrong intermediates.
		plan.Shared = cfg.prefix.cache
		plan.SharedScope = fmt.Sprintf("n=%d;parts=%d;labeled=%t", len(records), data.NumPartitions(), labels != nil)
	}
	models, _, report, err := plan.ExecuteContext(ctx, data, lab, cfg.workers, plan.DefaultCache(cfg.cacheBudget))
	if err != nil {
		return nil, fmt.Errorf("keystone: fit: %w", err)
	}

	inner := core.NewFitted(plan.Graph, models, engine.NewContext(cfg.workers))
	info := newFitInfo(plan, report, logical)
	info.Partitions = data.NumPartitions()
	return &Fitted[I, O]{
		inner:  inner,
		info:   info,
		report: nodeReports(plan.Graph, report),
	}, nil
}

// Fitted is a trained pipeline from I records to O records. It is
// immutable and safe for any number of concurrent callers; Transform is
// the single-record serving hot path (no batch assembly, no partition
// machinery, no goroutines).
type Fitted[I, O any] struct {
	inner  *core.Fitted
	info   FitInfo
	report []NodeReport
}

// Transform runs one record through the fitted pipeline. ctx is checked
// on entry (single-record evaluation is short; it does not poll
// mid-chain).
func (f *Fitted[I, O]) Transform(ctx context.Context, record I) (O, error) {
	var zero O
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
	}
	out := f.inner.TransformOne(record)
	o, ok := out.(O)
	if !ok {
		return zero, fmt.Errorf("keystone: pipeline produced %T, want %T", out, zero)
	}
	return o, nil
}

// TransformBatch runs a batch through the fitted pipeline. A dense
// pipeline (every operator has a block form, as SpeechPipeline's do)
// runs a block of records at a time, one GEMM per operator per block;
// any other pipeline or batch runs record by record. Large batches fan
// out across the engine workers. Outputs are bit-identical to Transform
// on every path. ctx is polled between blocks or records; on
// cancellation the partial batch is discarded and the context error
// returned.
func (f *Fitted[I, O]) TransformBatch(ctx context.Context, records []I) ([]O, error) {
	boxed := make([]any, len(records))
	for i, r := range records {
		boxed[i] = r
	}
	raw, err := f.inner.TransformBatch(ctx, boxed)
	if err != nil {
		return nil, err
	}
	out := make([]O, len(raw))
	for i, r := range raw {
		o, ok := r.(O)
		if !ok {
			return nil, fmt.Errorf("keystone: pipeline produced %T, want %T", r, out[i])
		}
		out[i] = o
	}
	return out, nil
}

// Info reports what the optimizer decided and what training cost.
func (f *Fitted[I, O]) Info() FitInfo { return f.info }

// TrainReport returns per-operator execution statistics from the Fit run
// (compute counts, cache hits, local time), in DAG order.
func (f *Fitted[I, O]) TrainReport() []NodeReport {
	out := make([]NodeReport, len(f.report))
	copy(out, f.report)
	return out
}

// FitInfo summarizes one Fit call: optimizer decisions and wall times.
type FitInfo struct {
	// OptimizeTime is the optimization overhead (sampling + profiling +
	// planning); TrainTime the full-data execution, and ModeledTrainTime
	// what the planner's cost model said the chosen plan's execution
	// would take (zero when profiling did not run).
	OptimizeTime     time.Duration
	TrainTime        time.Duration
	ModeledTrainTime time.Duration
	// Partitions is the number of partitions the training data was split
	// into (WithPartitions, or the placement's default).
	Partitions int
	// SampleSizes are the record counts of the two nested profiling
	// samples the optimizer actually ran on — what OptimizeTime was spent
	// over. Zero when profiling did not run (LevelNone).
	SampleSizes [2]int
	// CSEMerged counts DAG nodes eliminated as common subexpressions.
	CSEMerged int
	// Cached lists the operators whose outputs the planner pinned in
	// memory for the fit.
	Cached []string
	// Chosen maps optimizable nodes ("#id logical-name", captured before
	// substitution) to the physical implementation the operator-level
	// optimizer selected for them.
	Chosen map[string]string
	// EstimatedStateBytes is the profiled estimate of all intermediate
	// state the pipeline produces over the full dataset — the quantity a
	// cache budget is set against. Zero when profiling did not run
	// (LevelNone).
	EstimatedStateBytes int64
}

// NodeReport is one operator's execution record from a Fit run.
type NodeReport struct {
	Name      string
	Kind      string
	Computes  int // times the operator ran
	CacheHits int // accesses served from the cache
	Coalesced int // accesses coalesced onto in-flight computes
	// SharedHits counts accesses served by a WithPrefixCache shared
	// cache — work another fit (or an earlier shared access) already did.
	SharedHits int
	Time       time.Duration // total local compute time
}

func newFitInfo(plan *optimizer.Plan, report *core.ExecReport, logical map[int]string) FitInfo {
	info := FitInfo{
		OptimizeTime: plan.OptimizeTime,
		TrainTime:    report.Total,
		CSEMerged:    plan.CSEMerged,
		Chosen:       make(map[string]string, len(plan.Chosen)),
	}
	names := make(map[int]string, len(plan.Graph.Nodes))
	for _, n := range plan.Graph.Nodes {
		names[n.ID] = n.OpName()
	}
	for _, nid := range plan.CacheSet {
		info.Cached = append(info.Cached, names[nid])
	}
	sort.Strings(info.Cached)
	for id, op := range plan.Chosen {
		// Key by node id + pre-substitution logical name: the graph node
		// itself now carries the physical operator, and two branches can
		// share a logical name.
		info.Chosen[fmt.Sprintf("#%d %s", id, logical[id])] = op
	}
	if plan.Schedule != nil {
		info.ModeledTrainTime = time.Duration(plan.Schedule.Makespan() * float64(time.Second))
	}
	if plan.Profile != nil {
		info.SampleSizes = plan.Profile.SampleSizes
		for _, np := range plan.Profile.Nodes {
			info.EstimatedStateBytes += np.SizeBytes
		}
	}
	return info
}

func nodeReports(g *core.Graph, report *core.ExecReport) []NodeReport {
	ids := make([]int, 0, len(report.Nodes))
	for id := range report.Nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]NodeReport, 0, len(ids))
	for _, id := range ids {
		s := report.Nodes[id]
		out = append(out, NodeReport{
			Name:       s.Name,
			Kind:       s.Kind.String(),
			Computes:   s.Computes,
			CacheHits:  s.Hits,
			Coalesced:  s.Coalesced,
			SharedHits: s.SharedHits,
			Time:       s.Time,
		})
	}
	return out
}
