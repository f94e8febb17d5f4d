package dist

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"keystoneml/internal/cluster"
	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/optimizer"
	"keystoneml/keystone"
)

// FitOptions configures a distributed fit. The zero value is usable:
// one partition per worker-slot heuristic, full optimization, loopback
// resource descriptor.
type FitOptions struct {
	// Partitions is the number of global partitions the training data is
	// split into (0 = 2x the worker count, so every worker holds work
	// even after round-robin placement).
	Partitions int
	// Parallelism bounds the coordinator's local engine context, used
	// for profiling and estimator fits (0 = 1: the coordinator is
	// sequential; parallelism lives on the workers).
	Parallelism int
	// NumClasses feeds k into the solver cost models (0 = derived from
	// the label width).
	NumClasses int
	// CacheBudgetBytes caps the distributed materialization set chosen
	// by the planner; zero means unlimited.
	CacheBudgetBytes int64
	// Level selects the optimizer configuration (zero value = LevelFull).
	Level keystone.Level
	// SampleSizes overrides the two profiling sample sizes (zero = the
	// optimizer's data-proportional default, see keystone.WithSampleSizes).
	SampleSizes [2]int
	// Resources describes the cluster for the cost model; nil uses
	// cluster.Loopback for the connected worker count.
	Resources *cluster.Resources
}

// Report summarizes one distributed fit: the cluster shape it ran over,
// the modeled makespan the materialization set was chosen under, and the
// wall-clock split between optimization and distributed training.
type Report struct {
	Workers    int
	Partitions int
	// OptimizeTime is sampling + profiling + planning on the
	// coordinator; TrainTime the distributed execution (dispatches,
	// shuffles, estimator fits).
	OptimizeTime time.Duration
	TrainTime    time.Duration
	// ModeledMakespan is the distributed-time simulation of the chosen
	// plan (seconds) — what the planner believed this fit would cost.
	ModeledMakespan float64
	// CacheSet lists the operators whose outputs stayed resident on the
	// workers between passes.
	CacheSet []string
	// Recoveries counts worker deaths the fit survived: each one
	// reassigned the dead worker's partitions and replayed their lineage
	// on the survivors. Zero on a clean run.
	Recoveries int
	// ReplayedPartitions counts (dataset, partition) pairs rebuilt by
	// lineage replay across all recoveries — the recomputed work that
	// would have aborted the fit before fault tolerance.
	ReplayedPartitions int
}

// Fit trains pipeline p data-parallel across the cluster's workers and
// returns a fitted pipeline bit-identical to what a single-process
// keystone Fit at the same optimizer level would produce: partitions
// keep their global indices through every remote op, estimator inputs
// are fetched back in exact global order, and the models themselves are
// fit on the coordinator with the same collection shapes the local
// executor would have built.
//
// The optimizer runs on the coordinator over the local copy of the data
// (sampling and profiling are cheap relative to training), but costs its
// materialization choices with the distributed makespan model — network
// transfer and stage-launch terms from opts.Resources — so what the
// workers cache is decided by off-box economics, not local ones.
//
// Fit survives worker failure. Every remote dispatch records lineage —
// the chain of (op kind, state) applications that produced each
// distributed dataset from the coordinator-held input partitions — and
// when a worker's per-call deadline expires or its connection tears past
// the redial budget, the coordinator declares it dead, reassigns its
// partitions round-robin over the survivors, and replays exactly the
// lost partitions' chains onto their new owners before retrying the
// interrupted op. Because every recorded op is deterministic and
// partition-local, the recovered fit is bit-identical to the no-failure
// run; the fit only aborts when no live workers remain. Report.Recoveries
// says how many deaths a fit absorbed.
func Fit[I, O any](ctx context.Context, cl *Cluster, p *keystone.Pipeline[I, O], records []I, labels [][]float64, opts FitOptions) (fitted *keystone.Fitted[I, O], rep *Report, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cl == nil || cl.Workers() == 0 {
		return nil, nil, fmt.Errorf("dist: Fit needs a connected cluster")
	}
	if len(records) == 0 {
		return nil, nil, fmt.Errorf("dist: Fit requires at least one training record")
	}
	if labels != nil && len(labels) != len(records) {
		return nil, nil, fmt.Errorf("dist: %d records but %d labels", len(records), len(labels))
	}
	graph, out := p.EngineGraph()
	if labels == nil && usesLabels(graph, out) {
		return nil, nil, fmt.Errorf("dist: pipeline contains a supervised estimator but Fit was called with nil labels")
	}
	defer func() {
		if r := recover(); r != nil {
			if a, ok := r.(distAbort); ok {
				fitted, rep, err = nil, nil, a.err
				return
			}
			fitted, rep, err = nil, nil, fmt.Errorf("dist: fit panicked: %v", r)
		}
	}()

	workers := cl.Workers()
	parts := opts.Partitions
	if parts <= 0 {
		parts = 2 * workers
	}
	if parts > len(records) {
		parts = len(records)
	}
	par := opts.Parallelism
	if par <= 0 {
		par = 1
	}
	classes := opts.NumClasses
	if classes == 0 && len(labels) > 0 {
		classes = len(labels[0])
	}
	res := opts.Resources
	if res == nil {
		r := cluster.Loopback(workers)
		res = &r
	}

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

	// Optimize a private clone with the distributed cost model attached;
	// p's DAG stays pristine, like the local Fit.
	g := graph.Clone()
	g.Sink = g.Nodes[out.ID]
	logical := make(map[int]string, len(g.Nodes))
	for _, n := range g.Nodes {
		logical[n.ID] = n.OpName()
	}
	plan, err := optimizer.OptimizeContext(ctx, g, data, lab, optimizer.Config{
		Level:          level(opts.Level),
		Resources:      *res,
		MemBudgetBytes: opts.CacheBudgetBytes,
		NumClasses:     classes,
		SampleSizes:    opts.SampleSizes,
		Parallelism:    par,
		Dist: &core.DistModel{
			Workers:         workers,
			StageLatencySec: res.StageLatencySec,
			NetSecPerByte:   res.CoordWeight(),
		},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("dist: optimize: %w", err)
	}

	trainStart := time.Now()
	run := &fitRun{
		ctx:     ctx,
		cl:      cl,
		g:       plan.Graph,
		cached:  make(map[int]bool, len(plan.CacheSet)),
		labels:  lab,
		ectx:    engine.NewContext(par),
		models:  make(map[int]core.TransformOp),
		names:   make(map[int]string),
		fetched: make(map[int]*engine.Collection),
		lin:     core.NewLineage(),
		data:    data,
		dirty:   make(map[int]bool),
	}
	for _, id := range plan.CacheSet {
		run.cached[id] = true
	}
	defer run.freeAll()

	if err := run.loadSource(); err != nil {
		return nil, nil, fmt.Errorf("dist: load training data: %w", err)
	}
	// Demand the sink: transforms and gathers execute remotely, estimator
	// fits pull their (globally ordered) inputs back to the coordinator.
	name, temp, err := run.demand(plan.Graph.Sink)
	if err != nil {
		return nil, nil, err
	}
	run.release(name, temp)

	inner := core.NewFitted(plan.Graph, run.models, engine.NewContext(par))
	info := keystone.FitInfo{
		OptimizeTime: plan.OptimizeTime,
		TrainTime:    time.Since(trainStart),
		CSEMerged:    plan.CSEMerged,
		Chosen:       make(map[string]string, len(plan.Chosen)),
	}
	rep = &Report{
		Workers:            workers,
		Partitions:         parts,
		OptimizeTime:       plan.OptimizeTime,
		TrainTime:          info.TrainTime,
		Recoveries:         run.recoveries,
		ReplayedPartitions: run.replayedParts,
	}
	if plan.Schedule != nil {
		rep.ModeledMakespan = plan.Schedule.Makespan()
	}
	for _, id := range plan.CacheSet {
		info.Cached = append(info.Cached, plan.Graph.Nodes[id].OpName())
	}
	sort.Strings(info.Cached)
	rep.CacheSet = info.Cached
	for id, op := range plan.Chosen {
		info.Chosen[fmt.Sprintf("#%d %s", id, logical[id])] = op
	}
	if plan.Profile != nil {
		info.SampleSizes = plan.Profile.SampleSizes
		for _, np := range plan.Profile.Nodes {
			info.EstimatedStateBytes += np.SizeBytes
		}
	}
	return keystone.NewEngineFitted[I, O](inner, info), rep, nil
}

// level maps the public optimizer level to the internal one (the
// keystone package keeps its mapping unexported).
func level(l keystone.Level) optimizer.Level {
	switch l {
	case keystone.LevelNone:
		return optimizer.LevelNone
	case keystone.LevelPipeline:
		return optimizer.LevelPipeline
	default:
		return optimizer.LevelFull
	}
}

// usesLabels reports whether any node reachable from out reads the label
// source (mirrors the keystone-internal check).
func usesLabels(g *core.Graph, out *core.Node) bool {
	seen := make(map[int]bool)
	var walk func(n *core.Node) bool
	walk = func(n *core.Node) bool {
		if seen[n.ID] {
			return false
		}
		seen[n.ID] = true
		if n == g.Labels {
			return true
		}
		for _, d := range n.Deps {
			if walk(d) {
				return true
			}
		}
		return false
	}
	return walk(out)
}

// distAbort carries a distributed-execution error out of estimator Fit
// callbacks (which cannot return errors) to the top-level recover.
type distAbort struct{ err error }

// fitRun is the coordinator-side state of one distributed execution: a
// demand-driven recursion over the optimized DAG where retained
// (cache-set) datasets are computed once and kept resident under stable
// names, and everything else is recomputed per demand under temp names
// and freed immediately — the same recompute-on-miss semantics the cost
// model priced.
type fitRun struct {
	ctx    context.Context
	cl     *Cluster
	g      *core.Graph
	cached map[int]bool
	labels *engine.Collection
	ectx   *engine.Context
	models map[int]core.TransformOp

	names   map[int]string             // node ID -> resident dataset (cache set + source)
	fetched map[int]*engine.Collection // coordinator-side fetch memo for cached nodes
	tmpSeq  int
	temps   map[string]bool // live temp names, for cleanup on abort

	// Fault-tolerance state: the recorded derivation of every dataset
	// this run created, the coordinator's copy of the root partitions
	// (reloaded on demand during replay), and the global partitions lost
	// to a death but not yet rebuilt on their new owners.
	lin           *core.Lineage
	data          *engine.Collection
	dirty         map[int]bool
	recoveries    int
	replayedParts int
}

func (r *fitRun) sourceName() string { return fmt.Sprintf("n%d", r.g.Source.ID) }

func (r *fitRun) tempName() string {
	r.tmpSeq++
	name := fmt.Sprintf("t%d", r.tmpSeq)
	if r.temps == nil {
		r.temps = make(map[string]bool)
	}
	r.temps[name] = true
	return name
}

// release frees a temp dataset after its one use; retained datasets stay
// resident for later demands. The lineage node is only marked dropped,
// not deleted: live descendants still replay through it.
func (r *fitRun) release(name string, temp bool) {
	if !temp {
		return
	}
	delete(r.temps, name)
	r.lin.Drop(name)
	r.cl.Free(name) //nolint:errcheck // best-effort: a failed free only leaks worker memory
}

// freeAll drops every dataset this run created on the workers (resident
// and leftover temps). Called on both success and abort.
func (r *fitRun) freeAll() {
	names := []string{r.sourceName()}
	for _, n := range r.names {
		names = append(names, n)
	}
	for n := range r.temps {
		names = append(names, n)
	}
	r.cl.Free(names...) //nolint:errcheck // best-effort cleanup
}

// demand materializes node n's output on the workers and returns the
// dataset name holding it plus whether the caller owns (must release) it.
func (r *fitRun) demand(n *core.Node) (string, bool, error) {
	if err := checkCtx(r.ctx); err != nil {
		return "", false, err
	}
	switch n.Kind {
	case core.KindSource:
		return r.sourceName(), false, nil
	case core.KindLabels:
		return "", false, fmt.Errorf("dist: labels demanded as a remote dataset (labels stay on the coordinator)")
	case core.KindEstimator:
		return "", false, fmt.Errorf("dist: estimator node %d demanded as a dataset", n.ID)
	}
	if name, ok := r.names[n.ID]; ok {
		return name, false, nil
	}
	retain := r.cached[n.ID]
	var out string
	if retain {
		out = fmt.Sprintf("n%d", n.ID)
	} else {
		out = r.tempName()
	}
	if err := r.compute(n, out); err != nil {
		return "", false, err
	}
	if retain {
		r.names[n.ID] = out
		return out, false, nil
	}
	return out, true, nil
}

// compute executes one node remotely, storing its output under out.
func (r *fitRun) compute(n *core.Node, out string) error {
	switch n.Kind {
	case core.KindTransform:
		in, temp, err := r.demand(n.Deps[0])
		if err != nil {
			return err
		}
		err = r.applyOp(out, in, n.Transform)
		r.release(in, temp)
		return err
	case core.KindGather:
		return r.gather(n, out)
	case core.KindApplyModel:
		model, err := r.fit(n.Deps[0])
		if err != nil {
			return err
		}
		in, temp, err := r.demand(n.Deps[1])
		if err != nil {
			return err
		}
		err = r.applyOp(out, in, model)
		r.release(in, temp)
		return err
	default:
		return fmt.Errorf("dist: cannot compute %s node %d remotely", n.Kind, n.ID)
	}
}

// gather concatenates the branches' features pairwise left to right —
// the same association order as the local executor, so feature layouts
// match bit for bit.
func (r *fitRun) gather(n *core.Node, out string) error {
	acc, accTemp, err := r.demand(n.Deps[0])
	if err != nil {
		return err
	}
	if len(n.Deps) == 1 {
		err = r.aliasOp(out, acc)
		r.release(acc, accTemp)
		return err
	}
	for i := 1; i < len(n.Deps); i++ {
		b, bTemp, err := r.demand(n.Deps[i])
		if err != nil {
			r.release(acc, accTemp)
			return err
		}
		dst := out
		intermediate := i < len(n.Deps)-1
		if intermediate {
			dst = r.tempName()
		}
		err = r.zipOp(dst, acc, b)
		r.release(acc, accTemp)
		r.release(b, bTemp)
		if err != nil {
			return err
		}
		acc, accTemp = dst, intermediate
	}
	return nil
}

// fit runs one estimator on the coordinator. Its data fetches demand the
// input remotely and pull it back in global partition order; cached
// inputs are memoized locally so iterative estimators refetch for free,
// exactly as the cost model assumes.
func (r *fitRun) fit(n *core.Node) (core.TransformOp, error) {
	if n.Kind != core.KindEstimator {
		return nil, fmt.Errorf("dist: node %d is %s, want estimator", n.ID, n.Kind)
	}
	if m, ok := r.models[n.ID]; ok {
		return m, nil
	}
	dep := n.Deps[0]
	dataFetch := func() *engine.Collection {
		if c := r.fetched[dep.ID]; c != nil {
			return c
		}
		name, temp, err := r.demand(dep)
		if err != nil {
			panic(distAbort{err})
		}
		coll, err := r.fetchOp(name)
		r.release(name, temp)
		if err != nil {
			panic(distAbort{err})
		}
		if r.cached[dep.ID] {
			r.fetched[dep.ID] = coll
		}
		return coll
	}
	var labelsFetch core.Fetch
	if len(n.Deps) > 1 {
		// Deps[1] is the label source; labels never leave the
		// coordinator, so the fetch is a local lookup.
		labelsFetch = func() *engine.Collection {
			if r.labels == nil {
				panic(distAbort{fmt.Errorf("dist: pipeline uses labels but none were bound at Fit time")})
			}
			return r.labels
		}
	}
	model := n.Estimator.Fit(r.ectx, dataFetch, labelsFetch)
	r.models[n.ID] = model
	return model, nil
}

// --- fault tolerance ---------------------------------------------------
//
// Every remote dispatch below records its lineage before touching the
// wire and runs inside retrying, which absorbs worker deaths: the dead
// worker's partitions are reassigned, their lineage replayed onto the
// new owners, and the interrupted op re-broadcast. Unscoped ops are
// idempotent (they replace their output wholesale per worker), so the
// retried op never needs partial-progress bookkeeping — only the other
// live datasets do, and those are exactly what the replay rebuilds.

// loadSource ships the training data under the source node's name and
// records it as the lineage root the whole fit replays from.
func (r *fitRun) loadSource() error {
	name := r.sourceName()
	r.lin.Root(name)
	return r.retrying(name, func() error { return r.cl.Load(name, r.data) })
}

// applyOp records and dispatches one operator application. The operator
// is encoded once; the same bytes serve the wire and the lineage record,
// so a replay re-runs bit-identically what the original dispatch ran.
func (r *fitRun) applyOp(dst, src string, op core.TransformOp) error {
	kind, state, err := core.EncodeOp(op)
	if err != nil {
		return fmt.Errorf("dist: operator %q not shippable: %w", op.Name(), err)
	}
	r.lin.Apply(dst, src, kind, state)
	return r.retrying(dst, func() error { return r.cl.ApplyEncoded(dst, src, kind, state) })
}

// zipOp records and dispatches one gather-join.
func (r *fitRun) zipOp(dst, a, b string) error {
	r.lin.Zip(dst, a, b)
	return r.retrying(dst, func() error { return r.cl.Zip(dst, a, b) })
}

// aliasOp records and dispatches one single-branch gather.
func (r *fitRun) aliasOp(dst, src string) error {
	r.lin.Alias(dst, src)
	return r.retrying(dst, func() error { return r.cl.Alias(dst, src) })
}

// fetchOp pulls a dataset back to the coordinator under the same
// recovery loop as the dispatches: a worker dying mid-fetch triggers
// replay of the lost partitions (the fetched dataset included) before
// the fetch is retried.
func (r *fitRun) fetchOp(name string) (*engine.Collection, error) {
	var coll *engine.Collection
	err := r.retrying("", func() error {
		var err error
		coll, err = r.cl.Fetch(name)
		return err
	})
	return coll, err
}

// retrying runs one remote op under the recovery loop: before every
// attempt it drains newly detected worker deaths (reassigning and
// replaying their partitions), and a *WorkerFailure from the op itself
// buys another round. skip names the dataset the op produces — excluded
// from replay because the retried op recomputes it wholesale (nothing
// derives from it yet). Application-level errors return immediately.
func (r *fitRun) retrying(skip string, op func() error) error {
	attempts := r.cl.Workers() + 1
	var err error
	for a := 0; a < attempts; a++ {
		if err = checkCtx(r.ctx); err != nil {
			return err
		}
		if err = r.drainFailures(skip); err != nil {
			return err
		}
		if err = op(); err == nil {
			return nil
		}
		var wf *WorkerFailure
		if !errors.As(err, &wf) {
			return err
		}
	}
	return err
}

// drainFailures is the recovery procedure. For every worker declared
// dead since the last drain: reassign its partitions round-robin over
// the survivors and mark them dirty; then rebuild all dirty partitions
// of every live dataset (minus skip) by lineage replay. It loops because
// a survivor can die mid-replay — its partitions join the dirty set and
// the next round replays onto the shrunken cluster — and converges or
// runs out of workers within Workers+2 rounds.
func (r *fitRun) drainFailures(skip string) error {
	maxRounds := r.cl.Workers() + 2
	for round := 0; round < maxRounds; round++ {
		dead := r.cl.TakeFailed()
		if len(dead) == 0 && len(r.dirty) == 0 {
			return nil
		}
		for _, w := range dead {
			moved, err := r.cl.Reassign(w)
			if err != nil {
				return err
			}
			for _, parts := range moved {
				for _, p := range parts {
					r.dirty[p] = true
				}
			}
			r.recoveries++
		}
		if len(r.dirty) == 0 {
			continue
		}
		if err := r.replay(skip); err != nil {
			var wf *WorkerFailure
			if errors.As(err, &wf) {
				continue // death mid-replay: next round reassigns and replays again
			}
			return err
		}
		r.dirty = make(map[int]bool)
	}
	return fmt.Errorf("dist: recovery did not converge after %d rounds", maxRounds)
}

// replay rebuilds the dirty partitions of every live dataset except skip
// on their (new) owners, walking the recorded lineage root-to-leaf:
// roots reload from the coordinator's copy of the training partitions,
// everything else re-applies the exact encoded ops that built it. All
// scoped ops merge, so survivors' partitions are never touched and a
// half-finished replay can simply run again. Dropped intermediates are
// recreated as scratch and freed afterwards.
func (r *fitRun) replay(skip string) error {
	var targets []string
	for _, name := range r.lin.Live() {
		if name != skip {
			targets = append(targets, name)
		}
	}
	if len(targets) == 0 {
		return nil
	}
	order, err := r.lin.ReplayOrder(targets)
	if err != nil {
		return err
	}
	owners := r.cl.Owners()
	byOwner := make(map[int][]int)
	for p := range r.dirty {
		if p >= len(owners) {
			return fmt.Errorf("dist: dirty partition %d outside owners table (%d partitions)", p, len(owners))
		}
		byOwner[owners[p]] = append(byOwner[owners[p]], p)
	}
	workers := make([]int, 0, len(byOwner))
	for w := range byOwner {
		sort.Ints(byOwner[w])
		workers = append(workers, w)
	}
	sort.Ints(workers)

	var scratch []string
	defer func() {
		if len(scratch) > 0 {
			r.cl.Free(scratch...) //nolint:errcheck // best-effort scratch cleanup
		}
	}()
	for _, node := range order {
		if !node.Live {
			scratch = append(scratch, node.Name)
		}
		for _, w := range workers {
			parts := byOwner[w]
			var err error
			switch node.Kind {
			case core.LineageRoot:
				payload := make([]partition, len(parts))
				for i, p := range parts {
					payload[i] = partition{Index: p, Records: r.data.Partition(p)}
				}
				err = r.cl.LoadParts(w, node.Name, payload)
			case core.LineageApply:
				err = r.cl.ApplyParts(w, node.Name, node.Parents[0], node.OpKind, node.OpState, parts)
			case core.LineageZip:
				err = r.cl.ZipParts(w, node.Name, node.Parents[0], node.Parents[1], parts)
			case core.LineageAlias:
				err = r.cl.AliasParts(w, node.Name, node.Parents[0], parts)
			default:
				err = fmt.Errorf("dist: cannot replay %s lineage node %q", node.Kind, node.Name)
			}
			if err != nil {
				return err
			}
			r.replayedParts += len(parts)
		}
	}
	return nil
}
