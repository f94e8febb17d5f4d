package experiments

import (
	"fmt"
	"testing"
	"time"

	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/optimizer"
)

// These tests pin why the materialization planner must cost cache sets
// under the executor's actual schedule. On branchy DAGs the paper's
// sequential Σ t(v)·computes(v) model ranks pins by total work spared,
// but under k workers recomputing an off-critical-path fan is nearly
// free (it overlaps the critical chain) while shortening the critical
// chain moves wall-clock directly. The shapes below make the two models
// choose *different* pin sets under an equal budget.

// refetchEst is a minimal iterative estimator: it fetches its input w
// times (the refetch traffic the materialization optimizer exists for)
// and learns nothing.
type refetchEst struct{ w int }

func (e *refetchEst) Name() string { return "sched.refetch" }
func (e *refetchEst) Weight() int  { return e.w }
func (e *refetchEst) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	for i := 0; i < e.w; i++ {
		data()
	}
	return core.IdentityOp()
}

// schedShape is one branchy DAG: a critical chain of chainLen nodes
// (chainSleep per record each) gathered with a fan of fanWidth branches
// (fanSleep per record each, joined by a sub-gather), feeding a weight-w
// estimator. Sizes are chosen so that, under the budget, the planner can
// pin either the chain end (what the makespan model wants: it is the
// per-pass critical path) or the fan's sub-gather (what the sequential
// model wants: it spares the most total work) — but not both.
type schedShape struct {
	name               string
	records            int
	chainLen, fanWidth int
	// chainNode and fanNode are per-node total latencies (split evenly
	// across records), so the profile times are exact by construction.
	chainNode, fanNode time.Duration
	weight             int
	workers            int
}

// build constructs the graph, its analytic profile (node times are known
// exactly: the configured per-node latencies) and the training
// collection.
func (s schedShape) build() (*core.Graph, *optimizer.Profile, *engine.Collection) {
	sleepOp := func(name string, total time.Duration) core.TransformOp {
		perRecord := total / time.Duration(s.records)
		return core.NewTransform(name, func(x any) any {
			time.Sleep(perRecord)
			return x
		})
	}
	g := core.NewGraph()
	times := map[int]float64{}
	chain := g.Source
	for i := 0; i < s.chainLen; i++ {
		chain = g.AddTransform(sleepOp(fmt.Sprintf("chain%d", i), s.chainNode), chain)
		times[chain.ID] = s.chainNode.Seconds()
	}
	fan := make([]*core.Node, s.fanWidth)
	for i := range fan {
		fan[i] = g.AddTransform(sleepOp(fmt.Sprintf("fan%d", i), s.fanNode), g.Source)
		times[fan[i].ID] = s.fanNode.Seconds()
	}
	subGather := g.AddGather(fan)
	main := g.AddGather([]*core.Node{chain, subGather})
	est := g.AddEstimator(&refetchEst{w: s.weight}, main, false)
	g.AddApplyModel(est, main)

	// Sizes: every single node fits the budget (50 units) on its own,
	// but the gathers downstream of the whole DAG are too large to pin —
	// the planner must choose which upstream work to spare.
	prof := &optimizer.Profile{Nodes: map[int]*optimizer.NodeProfile{}, FullN: s.records}
	for _, n := range g.Topological() {
		size := int64(50)
		if n.ID == main.ID || n.Kind == core.KindApplyModel {
			size = 1000
		}
		prof.Nodes[n.ID] = &optimizer.NodeProfile{
			Name: n.OpName(), Kind: n.Kind, Weight: n.Weight(),
			TimeSec: times[n.ID], SizeBytes: size,
		}
	}

	items := make([]any, s.records)
	for i := range items {
		items[i] = []float64{float64(i), float64(i) + 1}
	}
	return g, prof, engine.FromSlice(items, 1)
}

// runPinSet executes the graph under the parallel scheduler with the
// given pin set and returns wall time (no schedule plan attached, so
// dispatch priorities are structural): the comparison isolates what the
// pin-set *choice* is worth.
func runPinSet(g *core.Graph, set []int, data *engine.Collection, workers int) time.Duration {
	var cache *engine.CacheManager
	if len(set) > 0 {
		cache = engine.NewCacheManager(0, engine.NewPinnedSetPolicy(core.CacheKeys(set)))
	}
	ex := core.NewExecutor(g, engine.NewContext(workers), cache, data, nil).SetWorkers(workers)
	return timeIt(func() { ex.Run() })
}

// schedTestShapes are two branchy shapes, each under 4 workers. Chain
// 2x25ms (critical path 50ms/pass) vs fan 6x10ms (60ms of work that
// overlaps into ~20ms): the sequential model pins the fan's sub-gather
// (spares 60ms of work/pass), the makespan model pins the chain end (cuts
// the critical path). The second is a deeper chain, a wider fan and a
// different refetch weight.
func schedTestShapes() []schedShape {
	return []schedShape{
		{name: "chain2-vs-fan6", records: 2, chainLen: 2, fanWidth: 6,
			chainNode: 25 * time.Millisecond, fanNode: 10 * time.Millisecond,
			weight: 4, workers: 4},
		{name: "chain3-vs-fan8", records: 2, chainLen: 3, fanWidth: 8,
			chainNode: 15 * time.Millisecond, fanNode: 8 * time.Millisecond,
			weight: 3, workers: 4},
	}
}

// TestSchedulePinSetsDiverge pins the planning half deterministically:
// on both branchy shapes and an equal budget, the sequential cost model
// and the makespan cost model choose different pin sets, and under the
// parallel model the makespan-aware choice is strictly better.
func TestSchedulePinSetsDiverge(t *testing.T) {
	const budget = 50
	for _, s := range schedTestShapes() {
		g, prof, _ := s.build()
		seqSet := optimizer.GreedyCacheSet(g, prof, budget, 1)
		mkSet := optimizer.GreedyCacheSet(g, prof, budget, s.workers)
		if len(seqSet) == 0 || len(mkSet) == 0 {
			t.Fatalf("%s: empty pin set (seq %v, makespan %v)", s.name, seqSet, mkSet)
		}
		same := len(seqSet) == len(mkSet)
		if same {
			for i := range seqSet {
				if seqSet[i] != mkSet[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("%s: models agree on %v; the shape no longer separates them", s.name, seqSet)
		}
		cost := func(set []int) float64 {
			cached := map[int]bool{}
			for _, id := range set {
				cached[id] = true
			}
			return optimizer.EstCost(g, prof, cached, s.workers)
		}
		if cs, cm := cost(seqSet), cost(mkSet); cm >= cs {
			t.Errorf("%s: makespan pin set modeled at %.3fs, not better than sequential set's %.3fs",
				s.name, cm, cs)
		}
	}
}

// TestScheduleMakespanPinSetFasterInWallClock executes both pin sets on
// the real parallel scheduler. Branch latencies are sleeps, so the gap
// (modeled ~1.9x) survives single-core CI; a generous 1.2x margin
// absorbs scheduling noise.
func TestScheduleMakespanPinSetFasterInWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const budget = 50
	for _, s := range schedTestShapes() {
		g, prof, data := s.build()
		seqSet := optimizer.GreedyCacheSet(g, prof, budget, 1)
		mkSet := optimizer.GreedyCacheSet(g, prof, budget, s.workers)
		tSeq := runPinSet(g, seqSet, data, s.workers)
		g2, _, data2 := s.build()
		tMk := runPinSet(g2, mkSet, data2, s.workers)
		if float64(tSeq) < 1.2*float64(tMk) {
			t.Errorf("%s: makespan pin set %v (%v) not clearly faster than sequential set %v (%v)",
				s.name, mkSet, tMk, seqSet, tSeq)
		}
	}
}
