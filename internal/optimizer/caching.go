package optimizer

import (
	"sort"

	"keystoneml/internal/core"
)

// profTimes extracts the per-node local time map a schedule plan
// consumes from a profile.
func profTimes(prof *Profile) map[int]float64 {
	out := make(map[int]float64, len(prof.Nodes))
	for id, np := range prof.Nodes {
		out[id] = np.TimeSec
	}
	return out
}

// schedule builds the schedule plan of g under the profile: its node
// times and placement model, cached as the materialization boundaries.
func (prof *Profile) schedule(g *core.Graph, cached map[int]bool, workers int) *core.SchedulePlan {
	p := core.NewSchedulePlan(g, profTimes(prof), cached, workers)
	p.Dist = prof.Dist
	return p
}

// EstCost estimates pipeline execution wall-clock (seconds) under a
// cache set with k DAG workers: the sequential Σ t(v)·computes(v) model
// for local execution with workers <= 1, the shared schedule plan's
// makespan simulation otherwise — list scheduling over k workers, or,
// when the profile carries a remote placement's model (prof.Dist), the
// sequential recursion with its stage-launch and transfer terms. This is
// the objective the materialization planner minimizes, so pins are
// ranked by their effect on wall-clock rather than on total work.
func EstCost(g *core.Graph, prof *Profile, cached map[int]bool, workers int) float64 {
	return costOf(g, prof, cached, workers).wall
}

// ScheduleFor builds the shared schedule plan both layers consume: the
// profile's node times and placement model, the chosen materialization
// set as cache boundaries, and the execution worker count. The executor
// orders dispatch by its priorities; the planner used the same model (via
// EstCost) to choose the pins, so optimizer and executor reason about one
// schedule. A nil profile gives the structural (unit-time) plan.
func ScheduleFor(g *core.Graph, prof *Profile, cacheSet []int, workers int) *core.SchedulePlan {
	cached := make(map[int]bool, len(cacheSet))
	for _, id := range cacheSet {
		cached[id] = true
	}
	if prof == nil {
		return core.NewSchedulePlan(g, nil, cached, workers)
	}
	return prof.schedule(g, cached, workers)
}

// cacheable reports whether a node's output may be materialized: sources
// and labels are already in memory, and estimator nodes produce models
// (memoized separately), so only data-producing operator nodes qualify.
func cacheable(n *core.Node) bool {
	switch n.Kind {
	case core.KindTransform, core.KindGather, core.KindApplyModel:
		return true
	default:
		return false
	}
}

// setCost is the planner's lexicographic objective under k workers:
// primarily the modeled wall-clock (makespan for k > 1), secondarily the
// sequential total work — the one-worker local makespan, which is the
// paper's Σ t(v)·computes(v). The secondary term matters only in the
// parallel model, where pinning one node of an off-critical-path subtree
// can leave the makespan unchanged (Δ = 0) even though a *set* of such
// pins would shorten it: ranking zero-makespan-delta candidates by work
// reduction lets greedy walk through those plateaus instead of stalling.
type setCost struct {
	wall float64 // EstCost: wall-clock under k workers
	work float64 // one-worker local makespan: sequential total work
}

func costOf(g *core.Graph, prof *Profile, cached map[int]bool, workers int) setCost {
	work := core.NewSchedulePlan(g, profTimes(prof), cached, 1).Makespan()
	if workers <= 1 && prof.Dist == nil {
		return setCost{wall: work, work: work}
	}
	return setCost{wall: prof.schedule(g, cached, workers).Makespan(), work: work}
}

// improves reports whether c is a strict lexicographic improvement on
// best (tolerances absorb float noise from the simulator's additions).
func (c setCost) improves(best setCost) bool {
	const eps = 1e-12
	if c.wall < best.wall-eps {
		return true
	}
	return c.wall < best.wall+eps && c.work < best.work-eps
}

// GreedyCacheSet is Algorithm 1 generalized to the executor's actual
// schedule: starting from an empty cache set, it repeatedly adds the
// node whose materialization most reduces the estimated wall-clock
// (EstCost: under `workers` DAG workers, and with the transfer and
// stage-launch terms of the placement model the profile carries, so
// behind a remote placement the datasets whose round-trips cost the most
// are pinned, not just the ones costing the most recompute) while
// fitting in the remaining memory, until no node improves the estimate
// or memory is exhausted. memBudget <= 0 means unlimited.
func GreedyCacheSet(g *core.Graph, prof *Profile, memBudget int64, workers int) []int {
	cached := make(map[int]bool)
	memLeft := memBudget
	current := costOf(g, prof, cached, workers)
	var result []int
	candidates := cacheCandidates(g, prof)
	for {
		best := -1
		bestCost := current
		for _, id := range candidates {
			if cached[id] {
				continue
			}
			np := prof.Nodes[id]
			if memBudget > 0 && np.SizeBytes > memLeft {
				continue
			}
			cached[id] = true
			c := costOf(g, prof, cached, workers)
			delete(cached, id)
			if c.improves(bestCost) {
				best = id
				bestCost = c
			}
		}
		if best < 0 {
			break
		}
		cached[best] = true
		memLeft -= prof.Nodes[best].SizeBytes
		current = bestCost
		result = append(result, best)
	}
	sort.Ints(result)
	return result
}

// ExactCacheSet brute-forces the optimal cache set for small DAGs under
// the same k-worker cost model as GreedyCacheSet (used in tests to
// validate the greedy heuristic; the paper rejects ILP solving at
// optimization time as too slow, which exhaustive search confirms — it
// is exponential in the candidate count).
func ExactCacheSet(g *core.Graph, prof *Profile, memBudget int64, workers int) ([]int, float64) {
	candidates := cacheCandidates(g, prof)
	if len(candidates) > 20 {
		panic("optimizer: ExactCacheSet limited to 20 candidates")
	}
	bestTime := EstCost(g, prof, map[int]bool{}, workers)
	var bestSet []int
	for mask := 0; mask < 1<<len(candidates); mask++ {
		var size int64
		cached := make(map[int]bool)
		for b, id := range candidates {
			if mask&(1<<b) != 0 {
				cached[id] = true
				size += prof.Nodes[id].SizeBytes
			}
		}
		if memBudget > 0 && size > memBudget {
			continue
		}
		t := EstCost(g, prof, cached, workers)
		if t < bestTime {
			bestTime = t
			bestSet = bestSet[:0]
			for id := range cached {
				bestSet = append(bestSet, id)
			}
		}
	}
	sort.Ints(bestSet)
	return bestSet, bestTime
}

func cacheCandidates(g *core.Graph, prof *Profile) []int {
	var out []int
	for _, n := range g.Topological() {
		if cacheable(n) && prof.Nodes[n.ID] != nil {
			out = append(out, n.ID)
		}
	}
	return out
}

// EstimatorInputIDs returns the data-dependency node IDs of every
// estimator — the "cache Estimator results" rule-based baseline caches the
// estimator *outputs*; this helper also powers reporting.
func EstimatorInputIDs(g *core.Graph) []int {
	var out []int
	for _, n := range g.Topological() {
		if n.Kind == core.KindEstimator {
			out = append(out, n.Deps[0].ID)
		}
	}
	return out
}

// ApplyModelIDs returns the IDs of model-application nodes: the
// rule-based policy treats these (the results of Estimators applied to
// data, i.e. what a fitted model produces) as its cacheable set.
func ApplyModelIDs(g *core.Graph) []int {
	var out []int
	for _, n := range g.Topological() {
		if n.Kind == core.KindApplyModel {
			out = append(out, n.ID)
		}
	}
	return out
}
