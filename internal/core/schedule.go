package core

import (
	"container/heap"
	"fmt"
)

// This file defines the SchedulePlan: the one schedule model both the
// materialization optimizer and the parallel executor reason with. Before
// it existed the two layers disagreed about the same DAG — the optimizer
// costed cache sets with the paper's sequential Σ t(v)·computes(v) model
// while the executor ran a stage-aware parallel scheduler, so the planner
// systematically mis-ranked cache candidates on branchy DAGs (recomputing
// a subtree costs its critical path under k workers, not its node-time
// sum). A SchedulePlan carries:
//
//   - the cost model: Makespan() simulates list-scheduled execution of
//     the demand/pass structure under k workers, honoring cache
//     boundaries and per-pass estimator refetches; workers=1 degenerates
//     to the paper's sequential oracle exactly;
//   - dispatch priorities: critical-path-first ordering for the
//     executor's ready queue, breaking ties toward nodes whose outputs
//     the materialization plan pins and toward nodes whose successors
//     unlock the widest stages.

// SchedulePlan is a schedule model for one pipeline graph: per-node
// times, the materialization boundaries, and a worker count, plus the
// derived priorities. Build it with NewSchedulePlan; the optimizer does
// so via optimizer.ScheduleFor and hands it to the executor through
// Plan.Execute, so both layers consume the same object.
//
// A plan is immutable after construction and safe for concurrent readers
// (the executor's pass coordinators and the simulator never mutate it);
// Makespan keeps its mutable simulation state on the stack.
type SchedulePlan struct {
	g *Graph
	// Workers is the DAG-level parallelism the plan models; <= 1 means
	// the sequential depth-first oracle.
	Workers int
	// Times holds t(v) in seconds per local computation of node v. A nil
	// map selects structural mode: every node costs one unit, which is
	// what the executor falls back to when no profile exists (priorities
	// become longest-downstream-hop counts).
	Times map[int]float64
	// Cached marks the materialization boundaries (the pinned set): a
	// cached node's output is computed once and served from memory
	// afterwards.
	Cached map[int]bool
	// Dist, when non-nil, prices execution behind a remote Placement:
	// Makespan takes the sequential recursion (the walker such a
	// placement runs on) with the model's parallelism, stage-launch and
	// transfer terms. Nil is the local model.
	Dist *DistModel

	structural bool
	priority   map[int]float64
	succWidth  map[int]int
}

// DistModel prices execution behind a remote Placement over W worker
// processes: a record-wise dispatch runs data-parallel (local time ÷ W)
// and pays one stage launch, and an estimator's fetch pays the network
// transfer of its input and one more launch. The zero model — one
// worker, no latency, free network — is local execution.
type DistModel struct {
	// Workers is the number of worker processes holding data partitions;
	// values <= 1 model a single one.
	Workers int
	// StageLatencySec is charged once per remote dispatch (the paper's
	// per-stage launch latency; an RPC round-trip for keystone/dist).
	StageLatencySec float64
	// NetSecPerByte converts bytes crossing the coordinator⇄worker
	// boundary to seconds (cluster.Resources.CoordWeight).
	NetSecPerByte float64
	// OutBytes holds the profiled full-data output size of each node,
	// charged when an estimator fetch pulls that node's partitions to
	// the coordinator. Missing entries transfer for free.
	OutBytes map[int]int64
}

// NewSchedulePlan derives priorities for g under the
// given per-node times (nil for structural unit costs), materialization
// set (nil for none) and worker count. The maps are retained, not
// copied; callers must not mutate them while the plan is in use.
func NewSchedulePlan(g *Graph, times map[int]float64, cached map[int]bool, workers int) *SchedulePlan {
	p := &SchedulePlan{
		g:          g,
		Workers:    workers,
		Times:      times,
		Cached:     cached,
		structural: times == nil,
		priority:   make(map[int]float64, len(g.Nodes)),
		succWidth:  make(map[int]int, len(g.Nodes)),
	}
	if p.Workers < 1 {
		p.Workers = 1
	}
	if p.Cached == nil {
		p.Cached = map[int]bool{}
	}

	order := g.Topological()
	succ := g.Successors()
	// Successors may include nodes unreachable from the sink; count only
	// the reachable ones so priorities and widths describe work that can
	// actually run.
	reachable := make(map[int]bool, len(order))
	for _, n := range order {
		reachable[n.ID] = true
	}
	// priority(v) = t(v) + max over reachable successors: the length of
	// the longest downstream path — v's pull on the critical path.
	// Computed sink-back (successors appear later in topological order).
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		var down float64
		for _, sid := range succ[n.ID] {
			if !reachable[sid] {
				continue
			}
			p.succWidth[n.ID]++
			if pr := p.priority[sid]; pr > down {
				down = pr
			}
		}
		p.priority[n.ID] = p.timeOf(n) + down
	}
	return p
}

// timeOf returns the modeled local compute time of n.
func (p *SchedulePlan) timeOf(n *Node) float64 {
	if p.structural {
		if n.Kind == KindSource || n.Kind == KindLabels {
			return 0
		}
		return 1
	}
	return p.Times[n.ID]
}

// Priority returns the dispatch priority of node id (longest downstream
// critical path, including the node's own time).
func (p *SchedulePlan) Priority(id int) float64 { return p.priority[id] }

// Pinned reports whether the materialization plan pins node id.
func (p *SchedulePlan) Pinned(id int) bool { return p.Cached[id] }

// Less is the ready-queue ordering: a dispatches before b when a's
// downstream critical path is longer; ties break toward pinned outputs
// (materializing them earlier opens cache boundaries for concurrent
// passes), then toward nodes with more successors (completing them
// unlocks the widest next stage), then by ID for determinism.
func (p *SchedulePlan) Less(a, b *Node) bool {
	pa, pb := p.priority[a.ID], p.priority[b.ID]
	if pa != pb {
		return pa > pb
	}
	if ca, cb := p.Cached[a.ID], p.Cached[b.ID]; ca != cb {
		return ca
	}
	if wa, wb := p.succWidth[a.ID], p.succWidth[b.ID]; wa != wb {
		return wa > wb
	}
	return a.ID < b.ID
}

// Makespan estimates the wall-clock seconds of executing the graph to
// its sink under the plan's worker count and materialization set. For
// Workers <= 1 it reproduces the paper's sequential oracle — the result
// equals Σ t(v)·computes(v) of the T(v)/C(v) recurrence exactly. For
// Workers > 1 it simulates the executor's pass structure: each demand is
// a dataflow pass over the subgraph pruned at cache boundaries,
// list-scheduled onto k workers in priority order, with estimator
// members expanding into their iterative refetch passes. The first
// computation of a node in the materialization set establishes a cache
// boundary for every later pass, which is how per-pass recompute counts
// enter the estimate.
//
// Modeling simplifications (it is a cost model, not a replay): a nested
// fetch pass is charged to its estimator's duration at full worker
// width, and within-pass coalescing follows the pass plan rather than
// live single-flight timing.
func (p *SchedulePlan) Makespan() float64 {
	if p.Workers <= 1 || p.Dist != nil {
		return p.sequentialTime()
	}
	return p.parallelTime()
}

// sequentialTime mirrors the sequential oracle's demand recursion: each
// access to an unmaterialized node recomputes it (and its inputs), the
// first computation of a node in the cache set pins it, fits run once in
// the calling process and fetch their data dependency Weight() times. A
// fetched copy stays with its handle, so a dataset that outlives the
// fetch — a pinned one, or the source — crosses the wire once. With no DistModel every placement term is zero and the
// result is the paper's Σ t(v)·computes(v).
func (p *SchedulePlan) sequentialTime() float64 {
	w, latency, net := 1.0, 0.0, 0.0
	var outBytes map[int]int64
	if d := p.Dist; d != nil {
		w, latency, net, outBytes = float64(max(d.Workers, 1)), d.StageLatencySec, d.NetSecPerByte, d.OutBytes
	}
	// dispatch prices n's own work as that many placement operations.
	dispatch := func(n *Node, ops int) float64 {
		return p.timeOf(n)/w + float64(ops)*latency
	}
	mat := make(map[int]bool)
	fitted := make(map[int]bool)
	held := make(map[int]bool) // datasets that outlive a fetch, already fetched
	var demand func(n *Node) float64
	var fit func(n *Node) float64
	demand = func(n *Node) float64 {
		if mat[n.ID] {
			return 0
		}
		var d float64
		switch n.Kind {
		case KindSource, KindLabels:
			return p.timeOf(n) // bound inputs; never materialized
		case KindTransform:
			d = demand(n.Deps[0]) + dispatch(n, 1)
		case KindGather:
			for _, dep := range n.Deps {
				d += demand(dep)
			}
			d += dispatch(n, len(n.Deps)-1) // one Zip per branch joined
		case KindApplyModel:
			d = fit(n.Deps[0]) + demand(n.Deps[1]) + dispatch(n, 1)
		default:
			panic(fmt.Sprintf("core: schedule simulation demanded %v node #%d as data", n.Kind, n.ID))
		}
		if p.Cached[n.ID] {
			mat[n.ID] = true
		}
		return d
	}
	fetch := func(dep *Node) float64 {
		if held[dep.ID] {
			return 0
		}
		held[dep.ID] = p.Cached[dep.ID] || dep.Kind == KindSource
		return demand(dep) + float64(outBytes[dep.ID])*net + latency
	}
	fit = func(n *Node) float64 {
		if fitted[n.ID] {
			return 0
		}
		fitted[n.ID] = true
		d := p.timeOf(n) + steadyFetches(n.Weight(), func() float64 { return fetch(n.Deps[0]) })
		if len(n.Deps) > 1 {
			d += demand(n.Deps[1]) // labels never leave the calling process
		}
		return d
	}
	return demand(p.g.Sink)
}

// steadyFetches charges w iterative fetches of an estimator's input by
// simulating at most two: the first fetch is the only one that can
// change simulation state (it materializes every pin it touches, and a
// later fetch demands a subset of what an earlier one did, so nothing
// new is ever pinned or fitted afterwards); fetches 2..w are identical
// repetitions of the second. This keeps the planner's cost independent
// of estimator iteration counts (solvers run tens to hundreds of
// passes, and GreedyCacheSet simulates per candidate per pick).
func steadyFetches(w int, fetch func() float64) float64 {
	if w <= 0 {
		return 0
	}
	d := fetch()
	if w > 1 {
		d += float64(w-1) * fetch()
	}
	return d
}

// parallelTime simulates the parallel executor: each demand of a node is
// one pass, planned by newPassPlan exactly as the executor plans it with
// the simulated materialization state as the boundary test; event-driven
// list scheduling assigns ready members to k workers in
// plan priority order, and estimator members expand into their refetch
// passes when dispatched.
func (p *SchedulePlan) parallelTime() float64 {
	mat := make(map[int]bool)
	fitted := make(map[int]bool)
	isMat := func(n *Node) bool { return mat[n.ID] }
	var passTime func(root *Node) float64
	var fitTime func(n *Node) float64

	fitTime = func(n *Node) float64 {
		if fitted[n.ID] {
			return 0
		}
		fitted[n.ID] = true
		d := p.timeOf(n) + steadyFetches(n.Weight(), func() float64 { return passTime(n.Deps[0]) })
		if len(n.Deps) > 1 {
			d += passTime(n.Deps[1])
		}
		return d
	}

	passTime = func(root *Node) float64 {
		switch root.Kind {
		case KindSource, KindLabels:
			return p.timeOf(root)
		}
		if mat[root.ID] {
			return 0
		}
		plan := newPassPlan(root, isMat)

		// dur resolves a member's duration at dispatch time, mutating
		// the simulation state exactly when the real scheduler would:
		// a computed pin becomes a boundary for every later pass, and a
		// dispatched fit consumes its refetch passes.
		dur := func(n *Node) float64 {
			switch {
			case n.Kind == KindEstimator:
				return fitTime(n)
			case plan.boundary[n.ID]:
				return 0
			case n.Kind == KindSource || n.Kind == KindLabels:
				return p.timeOf(n)
			default:
				if p.Cached[n.ID] {
					mat[n.ID] = true
				}
				return p.timeOf(n)
			}
		}

		ready := &planHeap{plan: p}
		for _, n := range plan.order {
			if plan.pending[n.ID] == 0 {
				heap.Push(ready, n)
			}
		}
		running := &simRunHeap{}
		clock, free := 0.0, p.Workers
		for ready.Len() > 0 || running.Len() > 0 {
			for free > 0 && ready.Len() > 0 {
				n := heap.Pop(ready).(*Node)
				heap.Push(running, simRun{finish: clock + dur(n), id: n.ID})
				free--
			}
			if running.Len() == 0 {
				break
			}
			r := heap.Pop(running).(simRun)
			clock = r.finish
			free++
			for _, sid := range plan.succ[r.id] {
				plan.pending[sid]--
				if plan.pending[sid] == 0 {
					heap.Push(ready, plan.nodes[sid])
				}
			}
		}
		return clock
	}
	return passTime(p.g.Sink)
}

// planHeap is a priority heap of nodes ordered by SchedulePlan.Less. It
// is shared by the executor's ready queue and the makespan simulator so
// the simulated dispatch order is, by construction, the order the real
// dispatcher would use.
type planHeap struct {
	plan  *SchedulePlan
	nodes []*Node
}

func (h *planHeap) Len() int           { return len(h.nodes) }
func (h *planHeap) Less(i, j int) bool { return h.plan.Less(h.nodes[i], h.nodes[j]) }
func (h *planHeap) Swap(i, j int)      { h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i] }
func (h *planHeap) Push(x any)         { h.nodes = append(h.nodes, x.(*Node)) }
func (h *planHeap) Pop() any {
	n := h.nodes[len(h.nodes)-1]
	h.nodes = h.nodes[:len(h.nodes)-1]
	return n
}

// simRun is one executing simulation member; the run heap pops the
// earliest finisher (ties by ID for determinism).
type simRun struct {
	finish float64
	id     int
}

type simRunHeap []simRun

func (h simRunHeap) Len() int { return len(h) }
func (h simRunHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].id < h[j].id
}
func (h simRunHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *simRunHeap) Push(x any)   { *h = append(*h, x.(simRun)) }
func (h *simRunHeap) Pop() any {
	old := *h
	r := old[len(old)-1]
	*h = old[:len(old)-1]
	return r
}
