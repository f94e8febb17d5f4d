package optimizer

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"keystoneml/internal/cluster"
	"keystoneml/internal/core"
	"keystoneml/internal/cost"
	"keystoneml/internal/engine"
)

// buildChain constructs Input -> t1 -> t2 -> estimator(weight w) -> apply,
// returning the graph and interesting node IDs.
func buildChain(w int) (g *core.Graph, t1, t2 int) {
	g = core.NewGraph()
	n1 := g.AddTransform(core.TypedTransform("t1", func(x float64) float64 { return x + 1 }), g.Source)
	n2 := g.AddTransform(core.TypedTransform("t2", func(x float64) float64 { return 2 * x }), n1)
	fitOn(g, &weightedEst{w: w}, n2)
	return g, n1.ID, n2.ID
}

// fitOn appends an unsupervised estimator fit on dep and the node
// applying its model to dep.
func fitOn(g *core.Graph, est core.EstimatorOp, dep *core.Node) *core.Node {
	return g.AddApplyModel(g.AddEstimator(est, dep, false), dep)
}

// vecOp is a pass-through transform over []float64 records.
func vecOp(name string) core.TransformOp {
	return core.TypedTransform(name, func(x []float64) []float64 { return x })
}

type weightedEst struct{ w int }

func (e *weightedEst) Name() string { return "test.est" }
func (e *weightedEst) Weight() int  { return e.w }
func (e *weightedEst) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	for i := 0; i < e.w; i++ {
		data()
	}
	return core.IdentityOp()
}

// profileFor fabricates a profile with uniform per-node times and sizes.
func profileFor(g *core.Graph, timeSec float64, size int64) *Profile {
	prof := &Profile{Nodes: map[int]*NodeProfile{}, FullN: 1000}
	for _, n := range g.Topological() {
		t := timeSec
		if n.Kind == core.KindSource || n.Kind == core.KindLabels {
			t = 0
		}
		prof.Nodes[n.ID] = &NodeProfile{Name: n.OpName(), Kind: n.Kind, TimeSec: t, SizeBytes: size, Weight: n.Weight()}
	}
	return prof
}

func TestExecutionCountsNoCache(t *testing.T) {
	g, t1, t2 := buildChain(5)
	counts := executionCounts(g, map[int]bool{})
	// Estimator (weight 5) + downstream apply: t2 computed 6 times, t1 too
	// (chain recomputes all the way down).
	if counts[t2] != 6 {
		t.Errorf("t2 computes = %g, want 6", counts[t2])
	}
	if counts[t1] != 6 {
		t.Errorf("t1 computes = %g, want 6", counts[t1])
	}
}

func TestExecutionCountsWithCache(t *testing.T) {
	g, t1, t2 := buildChain(5)
	counts := executionCounts(g, map[int]bool{t2: true})
	if counts[t2] != 1 {
		t.Errorf("cached t2 computes = %g, want 1", counts[t2])
	}
	if counts[t1] != 1 {
		t.Errorf("t1 behind cached t2 computes = %g, want 1", counts[t1])
	}
}

func TestExecutionCountsMatchExecutor(t *testing.T) {
	// The analytical model must agree with what the executor actually does.
	for _, w := range []int{1, 3, 7} {
		g, t1, t2 := buildChain(w)
		pred := executionCounts(g, map[int]bool{})
		items := []any{1.0, 2.0}
		ex := core.NewExecutor(g, engine.NewContext(1), nil, engine.FromSlice(items, 1), nil)
		_, _, report := ex.Run()
		for _, id := range []int{t1, t2} {
			if got := float64(report.Nodes[id].Computes); got != pred[id] {
				t.Errorf("w=%d node %d: model %g, executor %g", w, id, pred[id], got)
			}
		}
	}
}

func TestCachingNeverHurts(t *testing.T) {
	// Property: adding any single cacheable node never increases the
	// estimated runtime.
	g, _, _ := buildChain(4)
	prof := profileFor(g, 0.1, 100)
	base := EstRuntime(g, prof, map[int]bool{})
	for _, n := range g.Topological() {
		if !cacheable(n) {
			continue
		}
		withV := EstRuntime(g, prof, map[int]bool{n.ID: true})
		if withV > base+1e-12 {
			t.Errorf("caching node %d increased runtime %g -> %g", n.ID, base, withV)
		}
	}
}

func TestGreedyBeatsNoCache(t *testing.T) {
	g, _, _ := buildChain(10)
	prof := profileFor(g, 0.1, 100)
	set := GreedyCacheSet(g, prof, 1000, 1)
	if len(set) == 0 {
		t.Fatal("greedy cached nothing despite weight-10 estimator")
	}
	cached := map[int]bool{}
	for _, id := range set {
		cached[id] = true
	}
	if EstRuntime(g, prof, cached) >= EstRuntime(g, prof, map[int]bool{}) {
		t.Error("greedy cache set did not improve estimated runtime")
	}
}

func TestGreedyRespectsBudget(t *testing.T) {
	g, _, _ := buildChain(10)
	prof := profileFor(g, 0.1, 100)
	set := GreedyCacheSet(g, prof, 150, 1) // only one 100-byte node fits
	var total int64
	for _, id := range set {
		total += prof.Nodes[id].SizeBytes
	}
	if total > 150 {
		t.Errorf("greedy used %d bytes over budget 150", total)
	}
	if len(set) != 1 {
		t.Errorf("greedy cached %d nodes, want exactly 1 under budget", len(set))
	}
}

func TestGreedyPicksHighestValueNodeUnderPressure(t *testing.T) {
	// Two candidates; the one whose materialization saves more time (just
	// upstream of the iterative estimator) must win when only one fits.
	g, t1, t2 := buildChain(10)
	prof := profileFor(g, 0.1, 100)
	// Make t1 cheap to compute and t2 expensive.
	prof.Nodes[t1].TimeSec = 0.001
	prof.Nodes[t2].TimeSec = 1.0
	set := GreedyCacheSet(g, prof, 100, 1)
	if len(set) != 1 || set[0] != t2 {
		t.Errorf("greedy picked %v, want [%d] (the expensive node)", set, t2)
	}
}

func TestGreedyMatchesExactOnChain(t *testing.T) {
	for _, budget := range []int64{0, 100, 200, 1000} {
		g, _, _ := buildChain(6)
		prof := profileFor(g, 0.1, 100)
		gSet := GreedyCacheSet(g, prof, budget, 1)
		gCached := map[int]bool{}
		for _, id := range gSet {
			gCached[id] = true
		}
		gTime := EstRuntime(g, prof, gCached)
		_, eTime := ExactCacheSet(g, prof, budget, 1)
		if gTime > eTime*1.0001 {
			t.Errorf("budget %d: greedy %.4f worse than exact %.4f", budget, gTime, eTime)
		}
	}
}

func TestGreedyNearExactOnBranchingDAG(t *testing.T) {
	// Branching pipeline: shared prefix, two estimator branches, gather.
	g := core.NewGraph()
	shared := g.AddTransform(vecOp("shared"), g.Source)
	b1 := fitOn(g, &vecEst{w: 8}, shared)
	b2 := fitOn(g, &vecEst{w: 3}, shared)
	g.AddGather([]*core.Node{b1, b2})
	prof := profileFor(g, 0.1, 100)
	for _, budget := range []int64{100, 250, 400, 0} {
		gSet := GreedyCacheSet(g, prof, budget, 1)
		cached := map[int]bool{}
		for _, id := range gSet {
			cached[id] = true
		}
		gTime := EstRuntime(g, prof, cached)
		_, eTime := ExactCacheSet(g, prof, budget, 1)
		// Greedy is a heuristic; require it within 25% of optimal here
		// (empirically it is exact on these DAGs).
		if gTime > eTime*1.25 {
			t.Errorf("budget %d: greedy %.4f >> exact %.4f", budget, gTime, eTime)
		}
	}
}

type vecEst struct{ w int }

func (e *vecEst) Name() string { return "test.vecest" }
func (e *vecEst) Weight() int  { return e.w }
func (e *vecEst) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	for i := 0; i < e.w; i++ {
		data()
	}
	return core.IdentityOp()
}

// Property (testing/quick): greedy runtime is monotone non-increasing in
// the memory budget.
func TestGreedyMonotoneInBudget(t *testing.T) {
	g, _, _ := buildChain(7)
	prof := profileFor(g, 0.05, 100)
	f := func(b1, b2 uint16) bool {
		lo, hi := int64(b1), int64(b2)
		if lo > hi {
			lo, hi = hi, lo
		}
		run := func(budget int64) float64 {
			set := GreedyCacheSet(g, prof, budget, 1)
			cached := map[int]bool{}
			for _, id := range set {
				cached[id] = true
			}
			return EstRuntime(g, prof, cached)
		}
		return run(hi) <= run(lo)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCSEMergesIdenticalBranches(t *testing.T) {
	// Two branches applying the same op to the same input must merge.
	g := core.NewGraph()
	g.AddGather([]*core.Node{g.AddTransform(vecOp("same"), g.Source), g.AddTransform(vecOp("same"), g.Source)})
	before := len(g.Topological())
	merged := CSE(g)
	after := len(g.Topological())
	if merged != 1 {
		t.Errorf("merged = %d, want 1", merged)
	}
	if after >= before {
		t.Errorf("reachable nodes %d -> %d, want reduction", before, after)
	}
	// Execution still works and both gather inputs are identical.
	ex := core.NewExecutor(g, engine.NewContext(1), nil, engine.FromSlice([]any{[]float64{1, 2}}, 1), nil)
	_, out, _ := ex.Run()
	got := out.Collect()[0].([]float64)
	if len(got) != 4 {
		t.Errorf("gathered length = %d, want 4", len(got))
	}
}

func TestCSEPreservesDistinctOps(t *testing.T) {
	g := core.NewGraph()
	g.AddGather([]*core.Node{g.AddTransform(vecOp("opA"), g.Source), g.AddTransform(vecOp("opB"), g.Source)})
	if merged := CSE(g); merged != 0 {
		t.Errorf("CSE merged %d distinct nodes", merged)
	}
}

func TestCSECascades(t *testing.T) {
	// a->x->y and a->x'->y' with identical x,x' and y,y': both levels merge.
	g := core.NewGraph()
	y1 := g.AddTransform(vecOp("y"), g.AddTransform(vecOp("x"), g.Source))
	y2 := g.AddTransform(vecOp("y"), g.AddTransform(vecOp("x"), g.Source))
	g.AddGather([]*core.Node{y1, y2})
	if merged := CSE(g); merged != 2 {
		t.Errorf("cascaded CSE merged %d, want 2", merged)
	}
}

func TestOptimizeEndToEnd(t *testing.T) {
	g, _, t2 := buildChain(8)
	items := make([]any, 600)
	for i := range items {
		items[i] = float64(i)
	}
	data := engine.FromSlice(items, 4)
	cfg := Config{
		Level:      LevelFull,
		Resources:  cluster.R3_4XLarge(4),
		NumClasses: 2,
	}
	plan := Optimize(g, data, nil, cfg)
	if plan.Profile == nil {
		t.Fatal("no profile produced")
	}
	if plan.Profile.Nodes[t2] == nil {
		t.Fatal("profile missing node")
	}
	if len(plan.CacheSet) == 0 {
		t.Error("weight-8 estimator input not materialized")
	}
	if plan.OptimizeTime <= 0 || plan.OptimizeTime > 10*time.Second {
		t.Errorf("implausible optimize time %v", plan.OptimizeTime)
	}
	// Executing the plan gives the same output as unoptimized execution.
	_, out, _ := plan.Execute(data, nil, 4)
	g2, _, _ := buildChain(8)
	ex := core.NewExecutor(g2, engine.NewContext(4), nil, data, nil)
	_, out2, _ := ex.Run()
	a, b := out.Collect(), out2.Collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("optimized output differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestOptimizeLevelNoneIsNoop(t *testing.T) {
	g, _, _ := buildChain(3)
	nodesBefore := len(g.Nodes)
	plan := Optimize(g, engine.FromSlice([]any{1.0}, 1), nil, Config{Level: LevelNone})
	if len(plan.CacheSet) != 0 || plan.Profile != nil || len(g.Nodes) != nodesBefore {
		t.Error("LevelNone must not touch the graph")
	}
}

func TestExtrapolate(t *testing.T) {
	// Perfect linearity: t = 2n.
	if got := extrapolate(100, 200, 200, 400, 1000); got != 2000 {
		t.Errorf("linear extrapolation = %g, want 2000", got)
	}
	// Single point scales proportionally.
	if got := extrapolate(100, 200, 100, 200, 1000); got != 2000 {
		t.Errorf("single-point extrapolation = %g, want 2000", got)
	}
	// S2 is all the data: t2 is the full-scale time, whatever t1 is.
	if got := extrapolate(50, 999, 100, 200, 100); got != 200 {
		t.Errorf("full-sample extrapolation = %g, want 200", got)
	}
	// Negative estimates clamp to zero.
	if got := extrapolate(100, 50, 200, 10, 10000); got != 0 {
		t.Errorf("clamped extrapolation = %g, want 0", got)
	}
}

func TestLevelString(t *testing.T) {
	if LevelNone.String() != "none" || LevelPipeline.String() != "pipe-only" || LevelFull.String() != "keystoneml" {
		t.Error("Level.String wrong")
	}
}

func TestSampleSizeRule(t *testing.T) {
	prev := 0
	for _, n := range []int{0, 1, 7, 63, 64, 1000, 4096, 1000000} {
		s1, s2 := Config{}.samples(n)
		if s2 > min(n, 512) || s1 > s2 || s2 < prev {
			t.Errorf("n=%d: sizes (%d,%d) out of range or not monotone (previous s2 %d)", n, s1, s2, prev)
		}
		if n >= 1 && s1 < 1 || n >= 2 && s1 >= s2 {
			t.Errorf("n=%d: sizes (%d,%d), want 0 < s1 < s2 where n allows", n, s1, s2)
		}
		prev = s2
	}
	for n, want := range map[int][2]int{1000: {62, 125}, 4096: {256, 512}, 1000000: {256, 512}} {
		if s1, s2 := (Config{}).samples(n); [2]int{s1, s2} != want {
			t.Errorf("n=%d: sizes (%d,%d), want %v", n, s1, s2, want)
		}
	}
	// Explicit sizes are used verbatim, whatever n is.
	for _, n := range []int{10, 1000, 1000000} {
		if s1, s2 := (Config{SampleSizes: [2]int{16, 32}}).samples(n); s1 != 16 || s2 != 32 {
			t.Errorf("n=%d: explicit (16,32) became (%d,%d)", n, s1, s2)
		}
	}
}

// countingEst records how many records each Fit call saw; its model counts
// its applies like the test's other operators.
type countingEst struct {
	fits    []int
	applies *atomic.Int64
}

func (e *countingEst) Name() string { return "test.counting-est" }
func (e *countingEst) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	e.fits = append(e.fits, data().Count())
	return core.NewTransform("test.counting-model", func(in any) any { e.applies.Add(1); return in })
}

// TestProfileTouchesEachSampleRecordOnce: one Optimize applies every
// record-wise node (transform, gather branch, apply-model) to each of the
// s2 sample records exactly once, and fits each estimator exactly twice,
// on the nested S1 and on S2 — once, on S2, when S2 is all the data.
func TestProfileTouchesEachSampleRecordOnce(t *testing.T) {
	for _, tc := range []struct {
		n       int
		samples [2]int
		fits    []int
	}{
		{n: 1000, samples: [2]int{62, 125}, fits: []int{62, 125}},
		{n: 40, samples: [2]int{20, 40}, fits: []int{40}},
	} {
		var applies atomic.Int64
		count := func(name string) core.TransformOp {
			return core.TypedTransform(name, func(x []float64) []float64 { applies.Add(1); return x })
		}
		g := core.NewGraph()
		in := g.AddTransform(core.TypedTransform("vec", func(x float64) []float64 { applies.Add(1); return []float64{x} }), g.Source)
		a := g.AddTransform(count("a"), in)
		b := g.AddTransform(count("b"), in)
		est := &countingEst{applies: &applies}
		fitOn(g, est, g.AddGather([]*core.Node{a, b}))

		items := make([]any, tc.n)
		for i := range items {
			items[i] = float64(i)
		}
		plan := Optimize(g, engine.FromSlice(items, 4), nil, Config{Level: LevelFull, Resources: cluster.Local(4)})
		if plan.Profile.SampleSizes != tc.samples {
			t.Fatalf("n=%d: sample sizes %v, want %v", tc.n, plan.Profile.SampleSizes, tc.samples)
		}
		if got, want := applies.Load(), int64(4*tc.samples[1]); got != want {
			t.Errorf("n=%d: record-wise applies = %d, want 4 nodes x %d records", tc.n, got, tc.samples[1])
		}
		if !reflect.DeepEqual(est.fits, tc.fits) {
			t.Errorf("n=%d: estimator fits saw %v records, want %v", tc.n, est.fits, tc.fits)
		}
	}
}

// zeroCost prices every option at nothing, for one-option fakes.
type zeroCost struct{}

func (zeroCost) Name() string                          { return "test.zero-cost" }
func (zeroCost) Cost(cost.DataStats, int) cost.Profile { return cost.Profile{} }

// optModel is a fitted model that is itself Optimizable; its one option
// flags that it was substituted.
type optModel struct{ swapped *atomic.Bool }

func (optModel) Name() string     { return "test.opt-model" }
func (optModel) Apply(in any) any { return in }
func (m optModel) Options() []cost.Option {
	return []cost.Option{{Model: zeroCost{}, Operator: core.NewTransform("test.opt-model.swapped", func(in any) any {
		m.swapped.Store(true)
		return in
	})}}
}

// optEst is an Optimizable estimator whose one option is a renamed copy
// of itself, and whose model is an optModel.
type optEst struct {
	name    string
	swapped *atomic.Bool
}

func (e optEst) Name() string { return e.name }
func (e optEst) Options() []cost.Option {
	return []cost.Option{{Model: zeroCost{}, Operator: optEst{"test.opt-est.physical", e.swapped}}}
}
func (e optEst) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	data()
	return optModel{e.swapped}
}

// TestSelectionLeavesFittedModels: selection chooses the operators of
// transform and estimator nodes only. A fitted model that is itself
// Optimizable runs unchanged at its apply-model node.
func TestSelectionLeavesFittedModels(t *testing.T) {
	var swapped atomic.Bool
	g := core.NewGraph()
	vec := g.AddTransform(core.TypedTransform("vec", func(x float64) []float64 { return []float64{x} }), g.Source)
	est := g.AddEstimator(optEst{"test.opt-est", &swapped}, vec, false)
	g.AddApplyModel(est, vec)
	items := make([]any, 200)
	for i := range items {
		items[i] = float64(i)
	}
	plan := Optimize(g, engine.FromSlice(items, 4), nil, Config{Level: LevelFull, Resources: cluster.Local(4)})
	if want := map[int]string{est.ID: "test.opt-est.physical"}; !reflect.DeepEqual(plan.Chosen, want) {
		t.Errorf("Chosen %v, want %v", plan.Chosen, want)
	}
	if swapped.Load() {
		t.Error("the profile applied a substitute for the fitted model")
	}
	if name := g.Nodes[est.ID].Estimator.Name(); name != "test.opt-est.physical" {
		t.Errorf("estimator node holds %q after Optimize, want the chosen test.opt-est.physical", name)
	}
}

// cancelingEst cancels the optimizer's context from inside its fit.
type cancelingEst struct{ cancel context.CancelFunc }

func (cancelingEst) Name() string { return "test.canceling-est" }
func (e cancelingEst) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	e.cancel()
	data()
	return core.IdentityOp()
}

// TestOptimizeContextCanceledInFit: a cancellation during the profile
// comes back from OptimizeContext as an error, with no plan, and leaves
// the graph's operators as they were.
func TestOptimizeContextCanceledInFit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := core.NewGraph()
	apply := fitOn(g, cancelingEst{cancel}, g.AddTransform(core.TypedTransform("vec", func(x float64) []float64 { return []float64{x} }), g.Source))
	items := make([]any, 200)
	for i := range items {
		items[i] = float64(i)
	}
	plan, err := OptimizeContext(ctx, g, engine.FromSlice(items, 4), nil, Config{Level: LevelFull, Resources: cluster.Local(4)})
	if plan != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("OptimizeContext = (%v, %v), want no plan and context.Canceled", plan, err)
	}
	if _, ok := apply.Deps[0].Estimator.(cancelingEst); !ok {
		t.Errorf("estimator node holds %T after a canceled Optimize, want the graph's own", apply.Deps[0].Estimator)
	}
}

// alignedEst checks that every fit sees its labels split exactly as its
// data (label = 10 × the record's value) and records the fit sizes.
type alignedEst struct {
	t    *testing.T
	fits []int
}

func (e *alignedEst) Name() string { return "test.aligned-est" }
func (e *alignedEst) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	x, y := data().Collect(), labels().Collect()
	if len(x) != len(y) {
		e.t.Fatalf("fit on %d records with %d labels", len(x), len(y))
	}
	for i := range x {
		if want := 10 * x[i].([]float64)[0]; y[i].(float64) != want {
			e.t.Fatalf("record %d: label %v, want %v", i, y[i], want)
		}
	}
	e.fits = append(e.fits, len(x))
	return core.IdentityOp()
}

// TestProfileFitsSeeAlignedLabels: the S1 fit gets S1's labels and the S2
// fit S2's, each split exactly as the data, and the labels node keeps its
// profiled size.
func TestProfileFitsSeeAlignedLabels(t *testing.T) {
	g := core.NewGraph()
	vec := g.AddTransform(core.TypedTransform("vec", func(x float64) []float64 { return []float64{x} }), g.Source)
	est := &alignedEst{t: t}
	g.AddApplyModel(g.AddEstimator(est, vec, true), vec)
	items, labels := make([]any, 1000), make([]any, 1000)
	for i := range items {
		items[i], labels[i] = float64(i), float64(10*i)
	}
	plan := Optimize(g, engine.FromSlice(items, 4), engine.FromSlice(labels, 4), Config{Level: LevelPipeline, Resources: cluster.Local(4)})
	if !reflect.DeepEqual(est.fits, []int{62, 125}) {
		t.Errorf("fits saw %v records, want [62 125]", est.fits)
	}
	if plan.Profile.Nodes[g.Labels.ID].SizeBytes <= 0 {
		t.Errorf("labels profiled at %d bytes", plan.Profile.Nodes[g.Labels.ID].SizeBytes)
	}
}

// TestGatherTimeCoversFold: the executor folds a k-branch gather as k−1
// Zips, so a Zip whose left input is the fold so far (a handle the cache
// has not sized) carries that time over; one whose left input is a node
// output does not.
func TestGatherTimeCoversFold(t *testing.T) {
	p := &profiler{ctx: engine.NewContext(1)}
	parts := func() sample {
		return sample{engine.FromSlice([]any{[]float64{1}}, 1), engine.FromSlice([]any{[]float64{2}}, 1)}
	}
	branch := &handle{parts: parts(), stats: &cost.DataStats{}}
	fold := &handle{parts: parts(), times: [2]time.Duration{time.Hour, 2 * time.Hour}}
	out, _ := p.Zip(fold, branch)
	if got := out.(*handle).times; got[0] < time.Hour || got[1] < 2*time.Hour {
		t.Errorf("fold step times %v, want at least the fold's [1h 2h]", got)
	}
	out, _ = p.Zip(branch, branch)
	if got := out.(*handle).times; got[1] >= time.Hour {
		t.Errorf("first fold step times %v carry a node output's time", got)
	}
}
