package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"keystoneml/internal/engine"
)

// NodeStats is the measured execution record for one DAG node: the
// ingredients of the pipeline profile (Section 4.1) that the
// materialization optimizer consumes — t(v), size(v) and observed access
// counts.
type NodeStats struct {
	Name     string
	Kind     NodeKind
	Computes int // how many times the node's computation ran
	Hits     int // how many accesses were served by the cache
	// Coalesced counts accesses served by joining an in-flight
	// computation under the cache manager's single-flight rule (always 0
	// under the sequential oracle).
	Coalesced int
	// SharedHits counts accesses served by a cross-fit shared prefix
	// cache (SetSharedCache) — reuse of work another executor did
	// (always 0 when no shared cache is attached).
	SharedHits int
	Time       time.Duration // total local computation time across runs
}

// ExecReport aggregates execution statistics for one Fit run.
type ExecReport struct {
	Nodes map[int]*NodeStats
	Total time.Duration
}

// Executor evaluates a pipeline DAG over bound training data. There is
// deliberately no implicit memoization across demands: a node accessed
// twice recomputes unless the cache manager holds its output. This
// reproduces the execution model the paper's T(v)/C(v) analysis describes —
// the entire value of the materialization optimizer comes from this
// recompute-on-miss behaviour.
//
// Two scheduling modes share that contract:
//
//   - workers <= 1: the sequential depth-first oracle, byte-for-byte the
//     paper's single-driver evaluation order.
//   - workers > 1 (the default, sized from the engine context): the
//     stage-aware parallel scheduler in exec_parallel.go, which evaluates
//     each demanded subgraph as a dataflow pass — ready nodes dispatch to a
//     bounded worker pool, independent branches run concurrently, and a
//     node demanded by several concurrent consumers computes once
//     (single-flight) with the other consumers blocking on its result.
type Executor struct {
	g      *Graph
	ctx    *engine.Context
	cache  *engine.CacheManager // the fit's pinned set; never nil
	data   *engine.Collection
	labels *engine.Collection

	// place is where node outputs live and operators run (placement.go);
	// source is the bound training data as place holds it, set by Run.
	place  Placement
	source Dataset

	// workers bounds DAG-level parallelism (how many node computations
	// may run at once); <= 1 selects the sequential oracle.
	workers int
	slots   chan struct{} // bounded worker pool, nil in sequential mode

	// shared, when set, is a search-scoped cross-executor cache of node
	// outputs; sharedKeys maps this graph's node IDs to the content
	// signatures that key it. Nodes without a key never touch it.
	shared     *engine.CacheManager
	sharedKeys map[int]string

	mu sync.Mutex // guards models, report, modelFlight, dispatch
	// dispatch is the schedule plan whose priorities order the parallel
	// ready queue: the optimizer's (SetSchedulePlan), or a structural
	// fallback (unit times) built on first use.
	dispatch    *SchedulePlan
	models      map[int]TransformOp
	report      *ExecReport
	modelFlight map[int]*modelFlight
}

// NewExecutor binds a graph to training data and an execution context.
// labels may be nil for unsupervised pipelines; cache may be nil to run
// with no materialization at all (an empty pinned set, which still
// coalesces concurrent demands). DAG-level parallelism defaults to the
// context's Parallelism; use SetWorkers(1) for the sequential oracle.
func NewExecutor(g *Graph, ctx *engine.Context, cache *engine.CacheManager, data, labels *engine.Collection) *Executor {
	if cache == nil {
		cache = engine.NewCacheManager(0, engine.NewPinnedSetPolicy(nil))
	}
	e := &Executor{
		g:           g,
		ctx:         ctx,
		cache:       cache,
		data:        data,
		labels:      labels,
		models:      make(map[int]TransformOp),
		report:      &ExecReport{Nodes: make(map[int]*NodeStats)},
		modelFlight: make(map[int]*modelFlight),
	}
	e.place = localPlacement{e}
	e.SetWorkers(ctx.Parallelism)
	return e
}

// SetWorkers bounds how many DAG nodes may compute concurrently. n <= 1
// selects the sequential depth-first oracle; n <= 0 restores the default
// (the context's Parallelism). It returns the executor for chaining and
// must not be called once Run has started.
func (e *Executor) SetWorkers(n int) *Executor {
	if n <= 0 {
		n = e.ctx.Parallelism
	}
	e.workers = n
	if n > 1 {
		e.slots = make(chan struct{}, n)
	} else {
		e.slots = nil
	}
	return e
}

// Workers returns the DAG-level parallelism bound.
func (e *Executor) Workers() int { return e.workers }

// SetSchedulePlan attaches the shared schedule plan the optimizer built
// for this graph: the parallel dispatcher orders ready nodes by its
// critical-path priorities. Without a plan it falls back to structural
// (unit-time) priorities. Must not be called once Run has started;
// returns the executor for chaining.
func (e *Executor) SetSchedulePlan(p *SchedulePlan) *Executor {
	e.dispatch = p
	return e
}

// SetPlacement runs the DAG's operators through p instead of in this
// process and pins the walk to the sequential oracle, the only walker
// that tells a placement when a dataset is dead (see Placement). Call it
// after SetWorkers; must not be called once Run has started; returns the
// executor for chaining.
func (e *Executor) SetPlacement(p Placement) *Executor {
	e.place = p
	return e.SetWorkers(1)
}

// SetSharedCache attaches a cross-fit shared prefix cache: nodes whose
// ID appears in keys compute through sc's GetOrCompute under that key,
// so concurrent executors over graphs that share a signed prefix reuse
// each other's materialized intermediates, single-flight per shared
// node. keys come from PrefixSignatures over this executor's graph; the
// caller owns the cache's data-identity scope (see PrefixSignatures).
// Must not be called once Run has started; returns the executor for
// chaining.
func (e *Executor) SetSharedCache(sc *engine.CacheManager, keys map[int]string) *Executor {
	e.shared = sc
	e.sharedKeys = keys
	return e
}

// dispatchPlan returns the plan priorities the ready queue should use:
// the attached schedule plan, or a structural fallback built on first
// use.
func (e *Executor) dispatchPlan() *SchedulePlan {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dispatch == nil {
		e.dispatch = NewSchedulePlan(e.g, nil, nil, e.workers)
	}
	return e.dispatch
}

// Run is RunContext without cancellation; it panics where RunContext
// returns an error.
func (e *Executor) Run() (map[int]TransformOp, *engine.Collection, *ExecReport) {
	models, out, report, err := e.RunContext(context.Background())
	if err != nil {
		panic(err)
	}
	return models, out, report
}

// RunContext executes the DAG to the sink and returns the fitted models
// (keyed by estimator node ID), the sink output — nil when the placement
// holds it elsewhere — and the execution report. The executor (both
// schedulers), the engine's partition dispatch, and every estimator
// fit's input fetches poll ctx, so a long Fit unwinds cleanly mid-pass
// once ctx is canceled or its deadline passes. On cancellation, or when
// the placement fails, the partial report is returned alongside the
// error; the output collection and models are nil/incomplete and must
// not be used. The placement is closed before RunContext returns,
// however it returns.
func (e *Executor) RunContext(ctx context.Context) (models map[int]TransformOp, out *engine.Collection, report *ExecReport, err error) {
	if ctx != nil && ctx != context.Background() {
		e.ctx = e.ctx.WithCancellation(ctx)
	}
	defer e.place.Close()
	defer func() {
		switch r := recover().(type) {
		case nil:
		case placementError:
			models, out, report, err = nil, nil, e.report, r.err
		case *engine.Canceled:
			models, out, report, err = nil, nil, e.report, r
		default:
			panic(r)
		}
	}()
	start := time.Now()
	if e.data != nil {
		e.source = must(e.place.Source(e.data))
	}
	sink, temp := e.demand(e.g.Sink)
	out, _ = sink.(*engine.Collection)
	e.release(sink, temp)
	e.report.Total = time.Since(start)
	return e.models, out, e.report, nil
}

// placementError carries a Placement failure out of the walk (estimator
// fetch callbacks cannot return errors) to RunContext, which returns it.
type placementError struct{ err error }

// must unwraps a Placement result inside the walk.
func must[T any](v T, err error) T {
	if err != nil {
		panic(placementError{err})
	}
	return v
}

// release hands a dataset the walk no longer references back to the
// placement, if the walk owned it (see Placement).
func (e *Executor) release(d Dataset, temp bool) {
	if temp {
		e.place.Release(d)
	}
}

// demand materializes the output of n under the configured scheduler
// and reports whether the caller owns it: a temp must be released after
// its last use. A pass keeps its own results, so only the sequential
// oracle hands out temps.
func (e *Executor) demand(n *Node) (Dataset, bool) {
	e.ctx.CheckCanceled()
	if e.workers > 1 {
		return e.runPass(n), false
	}
	return e.obtain(n, nil)
}

func cacheKey(id int) string { return "node:" + strconv.Itoa(id) }

// CacheKeys converts node IDs to the executor's cache keys, the ids a
// cache policy pins.
func CacheKeys(ids []int) []string {
	keys := make([]string, len(ids))
	for i, id := range ids {
		keys[i] = cacheKey(id)
	}
	return keys
}

// cachedNow reports whether n's output currently sits in the fit's
// cache or, for a node with a shared key, in the prefix cache. It counts
// no access: it is the pass planner's boundary test.
func (e *Executor) cachedNow(n *Node) bool {
	_, _, hit := e.cache.Peek(cacheKey(n.ID))
	if k, ok := e.sharedKeys[n.ID]; ok && !hit {
		_, _, hit = e.shared.Peek(k)
	}
	return hit
}

// obtain gets n's output through the fit's cache: a stored entry, a
// concurrent demand's computation, or this caller's own, which the
// cache keeps if its policy admits n. ins follows the localCompute
// contract. It reports whether the caller owns the output (a temp
// neither cache keeps). It is the one place both walkers get a node
// output.
func (e *Executor) obtain(n *Node, ins []Dataset) (Dataset, bool) {
	temp := false
	out, how, kept := e.cache.GetOrCompute(cacheKey(n.ID), func() any {
		var out Dataset
		out, temp = e.compute(n, ins)
		return out
	}, e.size)
	switch how {
	case engine.Hit:
		e.noteHit(n)
	case engine.Joined:
		e.noteCoalesced(n)
	}
	return out, temp && !kept
}

// compute runs n's operator: through the prefix cache when n carries a
// shared key (reusing another fit's result, or computing once under
// cross-executor single-flight), directly otherwise. The prefix cache
// keeps what it serves, so only a direct computation yields a temp.
func (e *Executor) compute(n *Node, ins []Dataset) (Dataset, bool) {
	key, ok := e.sharedKeys[n.ID]
	if !ok {
		out, temp := e.localCompute(n, ins)
		e.noteCompute(n)
		return out, temp
	}
	out, how, _ := e.shared.GetOrCompute(key, func() any {
		out, _ := e.localCompute(n, ins)
		return out
	}, e.size)
	if how == engine.Computed {
		e.noteCompute(n)
	} else {
		e.noteSharedHit(n)
	}
	return out, false
}

// size measures a computed output for cache admission.
func (e *Executor) size(v any) int64 { return e.place.Size(v) }

// stats returns the mutable record for n; the caller must hold e.mu.
func (e *Executor) statsLocked(n *Node) *NodeStats {
	s, ok := e.report.Nodes[n.ID]
	if !ok {
		s = &NodeStats{Name: n.OpName(), Kind: n.Kind}
		e.report.Nodes[n.ID] = s
	}
	return s
}

func (e *Executor) noteHit(n *Node) {
	e.mu.Lock()
	e.statsLocked(n).Hits++
	e.mu.Unlock()
}

func (e *Executor) noteCoalesced(n *Node) {
	e.mu.Lock()
	e.statsLocked(n).Coalesced++
	e.mu.Unlock()
}

// noteCompute records one computation of n.
func (e *Executor) noteCompute(n *Node) {
	e.mu.Lock()
	e.statsLocked(n).Computes++
	e.mu.Unlock()
}

// noteSharedHit records an access of n served by the shared prefix
// cache (another executor's — or an earlier pass's — computation).
func (e *Executor) noteSharedHit(n *Node) {
	e.mu.Lock()
	e.statsLocked(n).SharedHits++
	e.mu.Unlock()
}

func (e *Executor) addTime(n *Node, d time.Duration) {
	e.mu.Lock()
	e.statsLocked(n).Time += d
	e.mu.Unlock()
}

// acquireSlot bounds node-local compute by the worker pool. Slots are
// held only across the local operator work, never while waiting on
// dependencies or in-flight results, so the pool cannot deadlock.
func (e *Executor) acquireSlot() {
	if e.slots != nil {
		e.slots <- struct{}{}
	}
}

func (e *Executor) releaseSlot() {
	if e.slots != nil {
		<-e.slots
	}
}

// localCompute evaluates n's operator through the placement. ins, when
// non-nil, carries already-materialized dependency outputs (positionally
// matching n.Deps) from a scheduler pass; any missing input is demanded
// on the spot, and released once the operator has consumed it. Only the
// node-local work is timed; dependency time is charged to the
// dependencies themselves. The result is a fresh temp, except where it
// is a bound input or, for a one-branch gather, that branch itself.
func (e *Executor) localCompute(n *Node, ins []Dataset) (Dataset, bool) {
	input := func(i int) (Dataset, bool) {
		if ins != nil && ins[i] != nil {
			return ins[i], false
		}
		return e.demand(n.Deps[i])
	}
	// apply times one operator application over dependency i.
	apply := func(op TransformOp, i int) (Dataset, bool) {
		in, temp := input(i)
		e.acquireSlot()
		defer e.releaseSlot()
		start := time.Now()
		out := must(e.place.Apply(in, op))
		e.addTime(n, time.Since(start))
		e.release(in, temp)
		return out, true
	}
	switch n.Kind {
	case KindSource:
		if e.data == nil {
			panic("core: pipeline executed without bound training data")
		}
		return e.source, false
	case KindLabels:
		if e.labels == nil {
			panic("core: pipeline uses labels but none were bound at Fit time")
		}
		return e.labels, false
	case KindTransform:
		return apply(n.Transform, 0)
	case KindGather:
		gathered := make([]Dataset, len(n.Deps))
		temps := make([]bool, len(n.Deps))
		for i := range n.Deps {
			gathered[i], temps[i] = input(i)
		}
		e.acquireSlot()
		defer e.releaseSlot()
		start := time.Now()
		out, temp := gathered[0], temps[0]
		for i := 1; i < len(gathered); i++ {
			joined := must(e.place.Zip(out, gathered[i]))
			e.release(out, temp)
			e.release(gathered[i], temps[i])
			out, temp = joined, true
		}
		e.addTime(n, time.Since(start))
		return out, temp
	case KindApplyModel:
		return apply(Fuse(e.fitModel(n.Deps[0]), n.Chain), 1)
	case KindEstimator:
		panic("core: estimator node materialized as data; estimators produce models, not collections")
	default:
		panic(fmt.Sprintf("core: unknown node kind %v", n.Kind))
	}
}

// modelFlight is the single-flight record for one estimator fit.
type modelFlight struct {
	done     chan struct{}
	model    TransformOp
	panicked any
}

// fitModel fits the estimator node once per run (models are memoized; it
// is the estimator's *input* that is refetched per pass, not the fit
// itself). Concurrent demands for the same model coalesce onto one fit.
func (e *Executor) fitModel(n *Node) TransformOp {
	if n.Kind != KindEstimator {
		panic(fmt.Sprintf("core: fitModel on non-estimator node #%d (%s)", n.ID, n.Kind))
	}
	e.mu.Lock()
	if m, ok := e.models[n.ID]; ok {
		e.mu.Unlock()
		return m
	}
	if f, ok := e.modelFlight[n.ID]; ok {
		e.mu.Unlock()
		<-f.done
		if f.panicked != nil {
			panic(f.panicked)
		}
		return f.model
	}
	f := &modelFlight{done: make(chan struct{})}
	e.modelFlight[n.ID] = f
	e.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			f.panicked = r
		}
		e.mu.Lock()
		delete(e.modelFlight, n.ID)
		e.mu.Unlock()
		close(f.done)
		if f.panicked != nil {
			panic(f.panicked)
		}
	}()

	// The fit occupies a worker slot for its own computation but yields
	// it while fetching inputs: the fetch recursion claims slots for the
	// nodes it computes, so a fit holding its slot across a fetch could
	// starve the pool into deadlock. This assumes fetches are invoked
	// from the fitting goroutine, which every library estimator does.
	held := false
	yieldSlot := func() {
		if held {
			e.releaseSlot()
			held = false
		}
	}
	claimSlot := func() {
		if !held {
			e.acquireSlot()
			held = true
		}
	}
	fetch := func() *engine.Collection {
		yieldSlot()
		d, temp := e.demand(n.Deps[0])
		out := must(e.place.Fetch(d))
		e.release(d, temp)
		claimSlot()
		return out
	}
	var labelFetch Fetch
	if len(n.Deps) > 1 {
		// Deps[1] is the label source: a bound input that never went
		// through the placement, so it is a local collection already.
		labelFetch = func() *engine.Collection {
			yieldSlot()
			d, _ := e.demand(n.Deps[1])
			claimSlot()
			return d.(*engine.Collection)
		}
	}
	e.ctx.CheckCanceled()
	claimSlot()
	defer yieldSlot()
	start := time.Now()
	// Fit wall time includes input fetches; subtract the time attributed
	// to dependency computes during the window so t(v) stays node-local.
	// Under the parallel scheduler concurrent branches can also log time
	// inside the window, so this stays an estimate there.
	depBefore := e.subtreeTime(n)
	model := n.Estimator.Fit(e.ctx, fetch, labelFetch)
	depAfter := e.subtreeTime(n)
	local := time.Since(start) - (depAfter - depBefore)
	if local < 0 {
		local = 0
	}
	e.mu.Lock()
	st := e.statsLocked(n)
	st.Time += local
	st.Computes++
	e.models[n.ID] = model
	e.mu.Unlock()
	f.model = model
	return model
}

// subtreeTime sums the recorded local time of n's proper ancestors
// (everything upstream of the estimator).
func (e *Executor) subtreeTime(n *Node) time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	seen := map[int]bool{}
	var total time.Duration
	var walk func(m *Node)
	walk = func(m *Node) {
		if seen[m.ID] {
			return
		}
		seen[m.ID] = true
		if s, ok := e.report.Nodes[m.ID]; ok {
			total += s.Time
		}
		for _, d := range m.Deps {
			walk(d)
		}
	}
	for _, d := range n.Deps {
		walk(d)
	}
	return total
}

// ConcatFeatures is the gather join: element-wise concatenation of two
// []float64 feature records. Exported so distributed workers apply the
// exact same join the local executor and the fitted apply path use.
func ConcatFeatures(a, b any) any {
	x, ok1 := a.([]float64)
	y, ok2 := b.([]float64)
	if !ok1 || !ok2 {
		panic(fmt.Sprintf("core: gather expects []float64 branches, got %T and %T", a, b))
	}
	out := make([]float64, 0, len(x)+len(y))
	out = append(out, x...)
	return append(out, y...)
}
