package core

import (
	"container/heap"
	"fmt"
)

// This file implements the stage-aware parallel scheduler: each demand
// for a node's output is evaluated as one dataflow *pass* over the
// demanded subgraph. The pass is planned from the dependency structure
// (the same reachability walk Graph.Topological performs, pruned at
// cache boundaries), nodes whose in-pass dependencies are satisfied form
// the ready set, and ready nodes dispatch immediately — so independent
// branches (the Gather fan-ins of the image and speech pipelines) run
// concurrently instead of depth-first one after the other.
//
// The recompute-on-miss contract of the sequential oracle is preserved
// *across* passes: pass results are dropped when the pass ends, so an
// iterative estimator's next fetch recomputes everything the cache
// manager does not hold, exactly as in the paper's T(v)/C(v) model.
// Within one pass (and between concurrent passes, via single-flight) a
// node shared by several branches computes once — that coalescing is the
// scheduler's other source of speedup and is reported separately in
// NodeStats.Coalesced.

// flight is the single-flight record for one node's in-progress
// materialization. Concurrent demands join the in-flight computation
// instead of duplicating it; the entry is removed on completion so later
// (sequential) demands still recompute on a cache miss.
type flight struct {
	done     chan struct{}
	out      Dataset
	panicked any
}

// passPlan is the schedule for one dataflow pass: the member nodes in
// dependency order, each member's unsatisfied in-pass dependency count,
// and the in-pass successor lists used to grow the ready set as members
// complete.
type passPlan struct {
	nodes    map[int]*Node
	order    []*Node       // dependency order (deps before dependents)
	pending  map[int]int   // remaining in-pass deps per member
	succ     map[int][]int // member -> in-pass dependents (IDs)
	boundary map[int]bool  // members that entered as cache boundaries
}

// newPassPlan computes the pass for a demand of root. The walk follows
// Deps like Graph.Topological but stops at boundary nodes (a cached node
// needs no inputs) and at estimator nodes (a fit fetches its inputs
// itself, through nested passes, so iterative refetch semantics
// survive). It is the one pass planner: the executor's runPass calls it
// with the live cache as the boundary test and the makespan simulator
// with its simulated one, so the simulated pass is the executed pass.
func newPassPlan(root *Node, boundary func(*Node) bool) *passPlan {
	p := &passPlan{
		nodes:    make(map[int]*Node),
		pending:  make(map[int]int),
		succ:     make(map[int][]int),
		boundary: make(map[int]bool),
	}
	var visit func(n *Node)
	visit = func(n *Node) {
		if _, ok := p.nodes[n.ID]; ok {
			return
		}
		p.nodes[n.ID] = n
		switch {
		case n.Kind == KindEstimator:
			// Member as a fit task; inputs are fetched on demand.
		case boundary(n):
			// The root included — a refetch of a materialized node is a
			// one-member pass: its output is served from memory, and
			// nothing upstream is demanded, matching the sequential
			// oracle, which never descends past a hit.
			p.boundary[n.ID] = true
		default:
			for _, d := range n.Deps {
				visit(d)
			}
		}
		p.order = append(p.order, n)
	}
	visit(root)
	// Dependency edges between members. An estimator waits for its
	// in-pass data dependency before fitting — its first fetch needs it
	// anyway, and deferring the fit keeps compute counts deterministic.
	for _, n := range p.order {
		if p.boundary[n.ID] {
			continue // boundary members take no inputs
		}
		for _, d := range n.Deps {
			if _, ok := p.nodes[d.ID]; !ok {
				continue
			}
			p.pending[n.ID]++
			p.succ[d.ID] = append(p.succ[d.ID], n.ID)
		}
	}
	return p
}

// passDone carries one member's completion back to the coordinator.
type passDone struct {
	n        *Node
	out      Dataset
	panicked any
}

// runPass executes one dataflow pass for a demand of root and returns
// root's output collection. The coordinator dispatches ready members in
// schedule-plan priority order (critical path first, ties toward pinned
// outputs and wide unlocks), at most `workers` in flight per pass, and
// releases dependents as their inputs arrive; node-local compute is
// additionally bounded by the executor's worker pool.
func (e *Executor) runPass(root *Node) Dataset {
	if root.Kind == KindEstimator {
		panic("core: estimator node demanded as data; estimators produce models, not collections")
	}
	// A cache boundary is a node the local cache holds, or one a shared
	// prefix cache holds — another fit already materialized it.
	plan := newPassPlan(root, func(n *Node) bool { return e.cachedNow(n) || e.sharedNow(n) })
	results := make(map[int]Dataset, len(plan.order))
	done := make(chan passDone, len(plan.order))
	// The ready set is a heap over the schedule plan's critical-path
	// priorities — the same heap the makespan simulator schedules with.
	ready := &planHeap{plan: e.dispatchPlan()}
	inFlight := 0
	var firstPanic any

	// Each member's output is only needed until its last in-pass
	// dependent has snapshotted it; dropping it then keeps the pass's
	// peak memory at the dataflow frontier instead of the whole
	// subgraph (the sequential oracle likewise releases intermediates
	// as its recursion unwinds).
	depRemaining := make(map[int]int, len(plan.succ))
	for id, ss := range plan.succ {
		depRemaining[id] = len(ss)
	}
	releaseInputs := func(n *Node) {
		if plan.boundary[n.ID] {
			return
		}
		for _, d := range n.Deps {
			if _, ok := plan.nodes[d.ID]; !ok {
				continue
			}
			depRemaining[d.ID]--
			if depRemaining[d.ID] == 0 && d.ID != root.ID {
				delete(results, d.ID)
			}
		}
	}

	// dispatch snapshots the member's inputs (written only by this
	// coordinator before the goroutine starts) and produces it.
	dispatch := func(n *Node) {
		ins := make([]Dataset, len(n.Deps))
		for i, d := range n.Deps {
			ins[i] = results[d.ID]
		}
		releaseInputs(n)
		inFlight++
		go func() {
			d := passDone{n: n}
			defer func() {
				if r := recover(); r != nil {
					d.panicked = r
				}
				done <- d
			}()
			d.out = e.produce(n, ins)
		}()
	}

	// fill drains the ready queue in priority order up to the worker
	// bound; completions below refill it. Gating dispatch (instead of
	// spawning every ready member and letting the slot pool arbitrate)
	// is what makes the priority ordering effective: when more members
	// are ready than workers, the longest critical path runs first.
	fill := func() {
		for inFlight < e.workers && ready.Len() > 0 {
			dispatch(heap.Pop(ready).(*Node))
		}
	}
	for _, n := range plan.order {
		if plan.pending[n.ID] == 0 {
			heap.Push(ready, n)
		}
	}
	fill()
	for inFlight > 0 {
		d := <-done
		inFlight--
		if d.panicked != nil {
			if firstPanic == nil {
				firstPanic = d.panicked
			}
			continue
		}
		results[d.n.ID] = d.out
		if firstPanic != nil {
			continue // drain without growing the ready set
		}
		for _, sid := range plan.succ[d.n.ID] {
			plan.pending[sid]--
			if plan.pending[sid] == 0 {
				heap.Push(ready, plan.nodes[sid])
			}
		}
		fill()
	}
	if firstPanic != nil {
		panic(firstPanic)
	}
	out, ok := results[root.ID]
	if !ok {
		panic(fmt.Sprintf("core: scheduler pass finished without producing node #%d (%s)", root.ID, root.OpName()))
	}
	return out
}

// produce materializes one pass member under the single-flight rule:
// concurrent passes demanding the same node share one computation, with
// the waiters blocking on its result. Estimator members resolve to their
// fitted model instead of a collection.
func (e *Executor) produce(n *Node, ins []Dataset) (out Dataset) {
	// Cooperative cancellation point: a canceled pass stops at the next
	// node boundary; the coordinator drains in-flight members and
	// re-raises the sentinel, which RunContext converts to an error.
	e.ctx.CheckCanceled()
	if n.Kind == KindEstimator {
		e.fitModel(n)
		return nil
	}
	e.mu.Lock()
	if f, ok := e.flight[n.ID]; ok {
		e.mu.Unlock()
		<-f.done
		if f.panicked != nil {
			panic(f.panicked)
		}
		e.noteCoalesced(n)
		return f.out
	}
	f := &flight{done: make(chan struct{})}
	e.flight[n.ID] = f
	e.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			f.panicked = r
		}
		f.out = out
		e.mu.Lock()
		delete(e.flight, n.ID)
		e.mu.Unlock()
		close(f.done)
		if f.panicked != nil {
			panic(f.panicked)
		}
	}()

	if e.cache != nil {
		if v, ok := e.cache.Get(cacheKey(n.ID)); ok {
			e.noteHit(n)
			return v
		}
	}
	// A planned cache boundary can lose its entry between planning and
	// production (tight budgets, concurrent eviction); localCompute then
	// demands the missing inputs itself via nested passes. Nodes with a
	// shared prefix key resolve through the cross-fit cache here —
	// single-flight against every other executor attached to it.
	out, bytes, _ := e.sharedFetch(n, ins)
	if e.cache != nil {
		e.cache.Put(cacheKey(n.ID), out, bytes)
	}
	return out
}
