package core

import (
	"math"
	"sync"
	"testing"
	"time"

	"keystoneml/internal/engine"
)

// chainGraph builds source -> t1 -> t2 -> ... -> tn and returns the
// graph plus the transform node IDs in order.
func chainGraph(n int) (*Graph, []int) {
	g := NewGraph()
	dep := g.Source
	ids := make([]int, n)
	for i := 0; i < n; i++ {
		node := g.AddTransform(IdentityOp(), dep)
		ids[i] = node.ID
		dep = node
	}
	return g, ids
}

// fanGraph builds source -> k parallel branches -> gather and returns
// the graph plus the branch node IDs.
func fanGraph(k int) (*Graph, []int) {
	g := NewGraph()
	branches := make([]*Node, k)
	ids := make([]int, k)
	for i := 0; i < k; i++ {
		branches[i] = g.AddTransform(IdentityOp(), g.Source)
		ids[i] = branches[i].ID
	}
	g.AddGather(branches)
	return g, ids
}

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestMakespanChainIsSumAtAnyWidth(t *testing.T) {
	g, ids := chainGraph(3)
	times := map[int]float64{ids[0]: 1, ids[1]: 2, ids[2]: 3}
	for _, workers := range []int{1, 2, 8} {
		p := NewSchedulePlan(g, times, nil, workers)
		if got := p.Makespan(); !almostEqual(got, 6) {
			t.Errorf("workers=%d chain makespan = %g, want 6 (a chain cannot overlap)", workers, got)
		}
	}
}

func TestMakespanFanOverlapsWithWorkers(t *testing.T) {
	g, ids := fanGraph(4)
	times := map[int]float64{}
	for _, id := range ids {
		times[id] = 1
	}
	for _, tc := range []struct {
		workers int
		want    float64
	}{
		{1, 4}, // sequential: all four branches in series
		{2, 2}, // two at a time
		{4, 1}, // full overlap
		{8, 1}, // extra workers don't help beyond DAG width
	} {
		p := NewSchedulePlan(g, times, nil, tc.workers)
		if got := p.Makespan(); !almostEqual(got, tc.want) {
			t.Errorf("workers=%d fan makespan = %g, want %g", tc.workers, got, tc.want)
		}
	}
}

func TestMakespanEstimatorRefetchesAndCacheBoundary(t *testing.T) {
	// source -> t1 -> est(w=3) -> apply: t1 runs once in the outer pass
	// plus once per fetch (4 total); pinning t1 collapses that to one.
	g := NewGraph()
	t1 := g.AddTransform(IdentityOp(), g.Source)
	est := g.AddEstimator(&schedTestEst{w: 3}, t1, false)
	g.AddApplyModel(est, t1)
	times := map[int]float64{t1.ID: 1}

	for _, workers := range []int{1, 4} {
		uncached := NewSchedulePlan(g, times, nil, workers)
		if got := uncached.Makespan(); !almostEqual(got, 4) {
			t.Errorf("workers=%d uncached makespan = %g, want 4 (3 fetches + 1 apply access)", workers, got)
		}
		cached := NewSchedulePlan(g, times, map[int]bool{t1.ID: true}, workers)
		if got := cached.Makespan(); !almostEqual(got, 1) {
			t.Errorf("workers=%d cached makespan = %g, want 1 (computed once, then boundary)", workers, got)
		}
	}
}

func TestPriorityIsDownstreamCriticalPath(t *testing.T) {
	g, ids := chainGraph(3)
	times := map[int]float64{ids[0]: 1, ids[1]: 2, ids[2]: 3}
	p := NewSchedulePlan(g, times, nil, 2)
	// Priority of a chain node = its own time plus everything downstream.
	wants := map[int]float64{ids[0]: 6, ids[1]: 5, ids[2]: 3}
	for id, want := range wants {
		if got := p.Priority(id); !almostEqual(got, want) {
			t.Errorf("priority(#%d) = %g, want %g", id, got, want)
		}
	}
	// The source is free (t=0), so it inherits its successor's critical
	// path rather than exceeding it.
	if got := p.Priority(g.Source.ID); !almostEqual(got, 6) {
		t.Errorf("source priority = %g, want 6 (free node inherits downstream path)", got)
	}
}

func TestLessBreaksTiesTowardPinnedThenWidth(t *testing.T) {
	// Three equal-time branches; b is pinned, c has an extra consumer.
	g := NewGraph()
	a := g.AddTransform(IdentityOp(), g.Source)
	b := g.AddTransform(IdentityOp(), g.Source)
	c := g.AddTransform(IdentityOp(), g.Source)
	extra := g.AddTransform(IdentityOp(), c)
	g.AddGather([]*Node{a, b, c, extra})
	times := map[int]float64{a.ID: 1, b.ID: 1, c.ID: 1, extra.ID: 0}
	p := NewSchedulePlan(g, times, map[int]bool{b.ID: true}, 2)
	if !p.Less(b, a) {
		t.Error("pinned node must win a priority tie")
	}
	if !p.Less(c, a) {
		t.Error("wider-unlock node must win a tie among unpinned nodes")
	}
	if p.Less(a, b) == p.Less(b, a) {
		t.Error("Less must be a strict ordering (exactly one direction true)")
	}
}

// schedTestEst is a minimal iterative estimator for schedule tests.
type schedTestEst struct{ w int }

func (e *schedTestEst) Name() string { return "test.schedEst" }
func (e *schedTestEst) Weight() int  { return e.w }
func (e *schedTestEst) Fit(ctx *engine.Context, data Fetch, labels Fetch) TransformOp {
	for i := 0; i < e.w; i++ {
		data()
	}
	return IdentityOp()
}

// TestPriorityDispatchRunsCriticalPathFirst attaches a profile-based
// schedule plan and checks that, with fewer workers than ready branches,
// the branches modeled as longest dispatch first.
func TestPriorityDispatchRunsCriticalPathFirst(t *testing.T) {
	var mu sync.Mutex
	var started []string
	// Each branch sleeps long enough that the two first-dispatched
	// goroutines are guaranteed to have recorded their start before
	// either completes and frees the third dispatch token.
	note := func(name string) TransformOp {
		return NewTransform(name, func(x any) any {
			mu.Lock()
			started = append(started, name)
			mu.Unlock()
			time.Sleep(30 * time.Millisecond)
			return x
		})
	}
	g := NewGraph()
	long := g.AddTransform(note("long"), g.Source)
	mid := g.AddTransform(note("mid"), g.Source)
	short := g.AddTransform(note("short"), g.Source)
	g.AddGather([]*Node{long, mid, short})

	times := map[int]float64{long.ID: 5, mid.ID: 3, short.ID: 1}
	plan := NewSchedulePlan(g, times, nil, 2)
	ctx := engine.NewContext(2)
	ex := NewExecutor(g, ctx, nil, engine.FromSlice([]any{[]float64{1}}, 1), nil).
		SetWorkers(2).SetSchedulePlan(plan) // 2 workers, 3 ready branches
	ex.Run()

	mu.Lock()
	defer mu.Unlock()
	if len(started) != 3 {
		t.Fatalf("started %v, want 3 branch computations", started)
	}
	// With 2 dispatch tokens the highest-priority pair goes first; the
	// modeled-shortest branch must wait for a completion.
	if started[2] != "short" {
		t.Errorf("dispatch order %v: short must be gated behind the two longer branches", started)
	}
}

// TestParallelUnpinnedRefetchRecomputes: the parallel executor keeps
// exactly what the plan pins. With nothing pinned, even under an
// unlimited budget, every fetch of the estimator's input recomputes it —
// the recompute-per-fetch counts of the sequential oracle and of
// Makespan.
func TestParallelUnpinnedRefetchRecomputes(t *testing.T) {
	g := NewGraph()
	t1 := g.AddTransform(IdentityOp(), g.Source)
	est := g.AddEstimator(&schedTestEst{w: 3}, t1, false)
	g.AddApplyModel(est, t1)

	ctx := engine.NewContext(4)
	cache := engine.NewCacheManager(0, engine.NewPinnedSetPolicy(nil))
	plan := NewSchedulePlan(g, nil, nil, 4)
	ex := NewExecutor(g, ctx, cache, engine.FromSlice([]any{[]float64{1, 2}}, 1), nil).
		SetWorkers(4).SetSchedulePlan(plan)
	_, _, report := ex.Run()

	st := report.Nodes[t1.ID]
	if st.Computes != 4 {
		t.Errorf("transform computed %d times, want 4 (3 fetches + outer pass)", st.Computes)
	}
	if st.Hits != 0 {
		t.Errorf("hits = %d, want 0", st.Hits)
	}
}
