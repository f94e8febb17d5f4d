package optimizer

import (
	"math"
	"math/rand"
	"testing"

	"keystoneml/internal/core"
)

// randomDAG builds a random pipeline DAG (transforms, gathers, iterative
// estimator+apply pairs over shared prefixes) with a random profile:
// times in (0, 1] seconds on operator nodes, zero on sources/labels,
// sizes in [10, 100) bytes. The construction mirrors how real pipelines
// branch — every new node reads a random already-built node — so shared
// prefixes, fan-outs and nested refetch subtrees all occur.
func randomDAG(r *rand.Rand) (*core.Graph, *Profile) {
	g := core.NewGraph()
	frontier := []*core.Node{g.Source}
	pick := func() *core.Node { return frontier[r.Intn(len(frontier))] }
	nOps := 3 + r.Intn(6)
	for i := 0; i < nOps; i++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4: // transform
			frontier = append(frontier, g.AddTransform(core.IdentityOp(), pick()))
		case 5, 6: // gather of 2-3 branches
			k := 2 + r.Intn(2)
			deps := make([]*core.Node, k)
			for j := range deps {
				deps[j] = pick()
			}
			frontier = append(frontier, g.AddGather(deps))
		default: // iterative estimator + model application
			dep := pick()
			est := g.AddEstimator(&vecEst{w: 1 + r.Intn(4)}, dep, r.Intn(2) == 0)
			frontier = append(frontier, g.AddApplyModel(est, dep))
		}
	}
	// Join 1-3 frontier nodes so the sink demands a non-trivial subgraph
	// (branches left out become unreachable and must be ignored by both
	// models).
	k := 1 + r.Intn(3)
	deps := make([]*core.Node, k)
	for j := range deps {
		deps[j] = pick()
	}
	g.AddGather(deps)

	prof := &Profile{Nodes: map[int]*NodeProfile{}, FullN: 1000}
	for _, n := range g.Topological() {
		t := 0.0
		if n.Kind != core.KindSource && n.Kind != core.KindLabels {
			t = 0.001 + r.Float64()
		}
		prof.Nodes[n.ID] = &NodeProfile{
			Name: n.OpName(), Kind: n.Kind, Weight: n.Weight(),
			TimeSec: t, SizeBytes: int64(10 + r.Intn(90)),
		}
	}
	return g, prof
}

// randomCacheSet picks a random subset of the cacheable nodes.
func randomCacheSet(r *rand.Rand, g *core.Graph, prof *Profile) map[int]bool {
	cached := map[int]bool{}
	for _, id := range cacheCandidates(g, prof) {
		if r.Intn(3) == 0 {
			cached[id] = true
		}
	}
	return cached
}

// TestMakespanSequentialMatchesEstRuntime is the simulator's anchor
// property: on randomized DAGs and randomized cache sets, the schedule
// plan's makespan at workers=1 must equal the paper's sequential
// Σ t(v)·computes(v) estimate — the new model strictly generalizes the
// old one, it does not replace it. So must the placement model with every
// term zero (one worker, no latency, free network): a nil DistModel is
// that model, not a different recursion.
func TestMakespanSequentialMatchesEstRuntime(t *testing.T) {
	r := rand.New(rand.NewSource(20260726))
	const dags = 250
	for i := 0; i < dags; i++ {
		g, prof := randomDAG(r)
		for trial := 0; trial < 3; trial++ {
			cached := randomCacheSet(r, g, prof)
			want := EstRuntime(g, prof, cached)
			for _, dist := range []*core.DistModel{nil, {OutBytes: map[int]int64{g.Sink.ID: 1 << 20}}} {
				plan := core.NewSchedulePlan(g, profTimes(prof), cached, 1)
				plan.Dist = dist
				if got := plan.Makespan(); math.Abs(got-want) > 1e-9*math.Max(1, want) {
					t.Fatalf("DAG %d trial %d dist=%v: workers=1 makespan %.12g != EstRuntime %.12g\n%s",
						i, trial, dist != nil, got, want, g)
				}
			}
		}
	}
}

// TestMakespanCachingNeverHurtsParallel: under the parallel model,
// adding any single cacheable node must not increase the simulated
// makespan on these DAGs (pinning removes work from every later pass).
func TestMakespanCachingNeverHurtsParallel(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		g, prof := randomDAG(r)
		base := EstCost(g, prof, map[int]bool{}, 4)
		for _, id := range cacheCandidates(g, prof) {
			with := EstCost(g, prof, map[int]bool{id: true}, 4)
			if with > base+1e-9 {
				t.Fatalf("DAG %d: pinning node %d increased makespan %.9g -> %.9g\n%s",
					i, id, base, with, g)
			}
		}
	}
}

// TestGreedyNearExactUnderParallelModel validates Algorithm 1 against
// brute force under the list-scheduling makespan objective: across
// randomized small DAGs and budgets, the greedy pin set's modeled
// makespan must stay within 10% of the exhaustive optimum.
func TestGreedyNearExactUnderParallelModel(t *testing.T) {
	r := rand.New(rand.NewSource(20260726))
	const workers = 4
	compared := 0
	for i := 0; compared < 200 && i < 400; i++ {
		g, prof := randomDAG(r)
		candidates := cacheCandidates(g, prof)
		if len(candidates) == 0 || len(candidates) > 9 {
			continue // keep the exhaustive search tractable
		}
		var total int64
		for _, id := range candidates {
			total += prof.Nodes[id].SizeBytes
		}
		budget := int64(float64(total) * (0.3 + 0.5*r.Float64()))
		gSet := GreedyCacheSet(g, prof, budget, workers)
		var used int64
		cached := map[int]bool{}
		for _, id := range gSet {
			cached[id] = true
			used += prof.Nodes[id].SizeBytes
		}
		if used > budget {
			t.Fatalf("DAG %d: greedy used %d bytes over budget %d", i, used, budget)
		}
		gCost := EstCost(g, prof, cached, workers)
		_, eCost := ExactCacheSet(g, prof, budget, workers)
		if gCost > eCost*1.1+1e-12 {
			t.Fatalf("DAG %d: greedy makespan %.6g exceeds 1.1x exact %.6g (budget %d)\n%s",
				i, gCost, eCost, budget, g)
		}
		compared++
	}
	if compared < 200 {
		t.Fatalf("only %d DAGs compared against the exhaustive optimum, want >= 200", compared)
	}
}

// TestGreedyParallelEscapesZeroDeltaPlateaus pins the case that
// motivated the lexicographic objective: two equal chains, a budget that
// fits both chain ends, and a makespan that only moves once *both* are
// pinned. A wall-clock-only greedy stalls after seeing Δ=0 everywhere;
// ranking plateau candidates by sequential work reduction walks through.
func TestGreedyParallelEscapesZeroDeltaPlateaus(t *testing.T) {
	g := core.NewGraph()
	mkChain := func(name string) *core.Node {
		a := g.AddTransform(core.NewTransform(name+"1", func(x any) any { return x }), g.Source)
		return g.AddTransform(core.NewTransform(name+"2", func(x any) any { return x }), a)
	}
	endA := mkChain("a")
	endB := mkChain("b")
	gather := g.AddGather([]*core.Node{endA, endB})
	est := g.AddEstimator(&vecEst{w: 4}, gather, false)
	g.AddApplyModel(est, gather)

	prof := &Profile{Nodes: map[int]*NodeProfile{}, FullN: 1000}
	for _, n := range g.Topological() {
		tv := 0.0
		if n.Kind == core.KindTransform {
			tv = 1.0
		}
		prof.Nodes[n.ID] = &NodeProfile{
			Name: n.OpName(), Kind: n.Kind, Weight: n.Weight(),
			TimeSec: tv, SizeBytes: 1000,
		}
	}
	// Budget fits exactly the two chain ends; the gather (the single
	// best pin) is made too large to fit.
	prof.Nodes[gather.ID].SizeBytes = 5000
	set := GreedyCacheSet(g, prof, 2000, 2)
	want := map[int]bool{endA.ID: true, endB.ID: true}
	if len(set) != 2 || !want[set[0]] || !want[set[1]] {
		t.Fatalf("greedy set = %v, want both chain ends %v", set, []int{endA.ID, endB.ID})
	}
}

// TestScheduleForRoundTrip: the plan the optimizer hands the executor
// carries the same cost model the planner used.
func TestScheduleForRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	g, prof := randomDAG(r)
	set := GreedyCacheSet(g, prof, 0, 4)
	plan := ScheduleFor(g, prof, set, 4)
	cached := map[int]bool{}
	for _, id := range set {
		cached[id] = true
	}
	if got, want := plan.Makespan(), EstCost(g, prof, cached, 4); math.Abs(got-want) > 1e-9 {
		t.Errorf("ScheduleFor makespan %.9g != EstCost %.9g", got, want)
	}
	for _, id := range set {
		if !plan.Pinned(id) {
			t.Errorf("node %d in cache set but not pinned in schedule plan", id)
		}
	}
}

// sanity check for the generator itself: it must produce estimators
// (refetch structure) reasonably often, or the properties above test
// less than they claim.
func TestRandomDAGGeneratorProducesRefetchStructure(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	withEst := 0
	for i := 0; i < 100; i++ {
		g, _ := randomDAG(r)
		for _, n := range g.Topological() {
			if n.Kind == core.KindEstimator {
				withEst++
				break
			}
		}
	}
	if withEst < 30 {
		t.Fatalf("only %d/100 random DAGs contain an estimator; generator too weak", withEst)
	}
}
