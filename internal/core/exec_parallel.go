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
// Within one pass (and between concurrent passes, via the cache
// manager's single-flight GetOrCompute) a node shared by several
// branches computes once — that coalescing is the scheduler's other
// source of speedup and is reported separately in NodeStats.Coalesced.

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
	plan := newPassPlan(root, e.cachedNow)
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

// produce materializes one pass member through obtain, so concurrent
// passes demanding the same node share one computation. Estimator
// members resolve to their fitted model instead of a collection.
func (e *Executor) produce(n *Node, ins []Dataset) Dataset {
	// Cooperative cancellation point: a canceled pass stops at the next
	// node boundary; the coordinator drains in-flight members and
	// re-raises the sentinel, which RunContext converts to an error.
	e.ctx.CheckCanceled()
	if n.Kind == KindEstimator {
		e.fitModel(n)
		return nil
	}
	// A planned cache boundary can lose its entry between planning and
	// production (tight budgets, concurrent eviction); localCompute then
	// demands the missing inputs itself via nested passes.
	out, _ := e.obtain(n, ins)
	return out
}
