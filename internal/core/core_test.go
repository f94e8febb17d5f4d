package core

import (
	"strings"
	"testing"

	"keystoneml/internal/engine"
)

// doublerEst is a trivial estimator: learns the mean of its input and
// produces a transformer subtracting it. If iterative, it fetches its
// input `weight` times.
type doublerEst struct {
	weight  int
	fetches int
}

func (d *doublerEst) Name() string { return "test.meanCenter" }
func (d *doublerEst) Weight() int  { return d.weight }
func (d *doublerEst) Fit(ctx *engine.Context, data Fetch, labels Fetch) TransformOp {
	var sum float64
	var n int
	passes := d.weight
	if passes < 1 {
		passes = 1
	}
	for p := 0; p < passes; p++ {
		d.fetches++
		c := data()
		sum, n = 0, 0
		for _, r := range c.Collect() {
			sum += r.(float64)
			n++
		}
	}
	mean := sum / float64(n)
	return NewTransform("test.subMean", func(in any) any { return in.(float64) - mean })
}

// labelReader is an estimator that eagerly fetches its labels.
type labelReader struct{}

func (labelReader) Name() string { return "test.labelReader" }
func (labelReader) Fit(ctx *engine.Context, data Fetch, labels Fetch) TransformOp {
	labels()
	return IdentityOp()
}

// fitOn appends an unsupervised estimator fit on dep and the node
// applying its model to dep.
func fitOn(g *Graph, est EstimatorOp, dep *Node) *Node {
	return g.AddApplyModel(g.AddEstimator(est, dep, false), dep)
}

func floatColl(vals []float64, parts int) *engine.Collection {
	items := make([]any, len(vals))
	for i, v := range vals {
		items[i] = v
	}
	return engine.FromSlice(items, parts)
}

func TestPipelineLinearChain(t *testing.T) {
	g := NewGraph()
	double := g.AddTransform(TypedTransform("double", func(x float64) float64 { return 2 * x }), g.Source)
	g.AddTransform(TypedTransform("inc", func(x float64) float64 { return x + 1 }), double)

	ctx := engine.NewContext(2)
	ex := NewExecutor(g, ctx, nil, floatColl([]float64{1, 2, 3}, 2), nil)
	models, out, _ := ex.Run()
	got := out.Collect()
	want := []float64{3, 5, 7}
	for i, v := range got {
		if v.(float64) != want[i] {
			t.Errorf("out[%d] = %v, want %g", i, v, want[i])
		}
	}
	if len(models) != 0 {
		t.Errorf("no estimators but got %d models", len(models))
	}
}

func TestPipelineWithEstimator(t *testing.T) {
	g := NewGraph()
	fitOn(g, &doublerEst{weight: 1}, g.Source)

	ctx := engine.NewContext(2)
	ex := NewExecutor(g, ctx, nil, floatColl([]float64{1, 2, 3, 4}, 2), nil)
	models, out, _ := ex.Run()
	if len(models) != 1 {
		t.Fatalf("models = %d, want 1", len(models))
	}
	// mean = 2.5, output should be centered.
	var sum float64
	for _, v := range out.Collect() {
		sum += v.(float64)
	}
	if sum != 0 {
		t.Errorf("centered sum = %g, want 0", sum)
	}
}

func TestIterativeEstimatorRefetchesInput(t *testing.T) {
	// Without caching, a weight-3 estimator plus the downstream apply node
	// should materialize the upstream transform 4 times.
	g := NewGraph()
	id := g.AddTransform(TypedTransform("id", func(x float64) float64 { return x }), g.Source)
	est := &doublerEst{weight: 3}
	fitOn(g, est, id)

	ctx := engine.NewContext(1)
	ex := NewExecutor(g, ctx, nil, floatColl([]float64{1, 2}, 1), nil)
	_, _, report := ex.Run()
	if est.fetches != 3 {
		t.Errorf("estimator fetches = %d, want 3", est.fetches)
	}
	transformID := id.ID
	if got := report.Nodes[transformID].Computes; got != 4 {
		t.Errorf("upstream transform computed %d times, want 4 (3 passes + 1 apply)", got)
	}
}

func TestCachingEliminatesRecompute(t *testing.T) {
	g := NewGraph()
	id := g.AddTransform(TypedTransform("id", func(x float64) float64 { return x }), g.Source)
	fitOn(g, &doublerEst{weight: 5}, id)

	ctx := engine.NewContext(1)
	transformID := id.ID
	cache := engine.NewCacheManager(0, engine.NewPinnedSetPolicy([]string{cacheKey(transformID)}))
	ex := NewExecutor(g, ctx, cache, floatColl([]float64{1, 2}, 1), nil)
	_, _, report := ex.Run()
	st := report.Nodes[transformID]
	if st.Computes != 1 {
		t.Errorf("cached transform computed %d times, want 1", st.Computes)
	}
	if st.Hits != 5 {
		t.Errorf("cache hits = %d, want 5 (4 remaining passes + 1 apply)", st.Hits)
	}
}

func TestOptimizedPlanMatchesUnoptimizedOutput(t *testing.T) {
	// Identical pipelines with and without caching must produce identical
	// outputs: materialization is semantically invisible.
	build := func() *Graph {
		g := NewGraph()
		x3 := g.AddTransform(TypedTransform("x3", func(x float64) float64 { return 3 * x }), g.Source)
		fitOn(g, &doublerEst{weight: 2}, x3)
		return g
	}
	data := []float64{5, 1, -2, 7}
	ctx := engine.NewContext(2)

	ex1 := NewExecutor(build(), ctx, nil, floatColl(data, 2), nil)
	_, out1, _ := ex1.Run()

	cache := engine.NewCacheManager(0, engine.NewLRUPolicy())
	ex2 := NewExecutor(build(), ctx, cache, floatColl(data, 2), nil)
	_, out2, _ := ex2.Run()

	a, b := out1.Collect(), out2.Collect()
	for i := range a {
		if a[i].(float64) != b[i].(float64) {
			t.Fatalf("cached and uncached outputs differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestGatherConcatenates(t *testing.T) {
	g := NewGraph()
	b1 := g.AddTransform(TypedTransform("first", func(x []float64) []float64 { return x[:1] }), g.Source)
	b2 := g.AddTransform(TypedTransform("scaled", func(x []float64) []float64 {
		out := make([]float64, len(x))
		for i, v := range x {
			out[i] = 10 * v
		}
		return out
	}), g.Source)
	g.AddGather([]*Node{b1, b2})

	ctx := engine.NewContext(1)
	data := engine.FromSlice([]any{[]float64{1, 2}}, 1)
	ex := NewExecutor(g, ctx, nil, data, nil)
	_, out, _ := ex.Run()
	got := out.Collect()[0].([]float64)
	want := []float64{1, 10, 20}
	if len(got) != len(want) {
		t.Fatalf("gathered = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gathered = %v, want %v", got, want)
		}
	}
}

func TestBranchingSharesPrefix(t *testing.T) {
	// Two branches off the same prefix: without caching, the shared prefix
	// recomputes once per branch access.
	g, shared := sharedPrefixGraph()

	ctx := engine.NewContext(1)
	data := engine.FromSlice([]any{[]float64{1}}, 1)
	ex := NewExecutor(g, ctx, nil, data, nil)
	_, _, report := ex.Run()
	if got := report.Nodes[shared.ID].Computes; got != 2 {
		t.Errorf("shared prefix computed %d times, want 2", got)
	}
}

// sharedPrefixGraph builds source -> shared -> {b1, b2} -> gather and
// returns the graph and its shared node.
func sharedPrefixGraph() (*Graph, *Node) {
	g := NewGraph()
	shared := g.AddTransform(TypedTransform("shared", func(x []float64) []float64 { return x }), g.Source)
	b1 := g.AddTransform(TypedTransform("b1", func(x []float64) []float64 { return x }), shared)
	b2 := g.AddTransform(TypedTransform("b2", func(x []float64) []float64 { return x }), shared)
	g.AddGather([]*Node{b1, b2})
	return g, shared
}

func TestFittedApply(t *testing.T) {
	g := NewGraph()
	x2 := g.AddTransform(TypedTransform("x2", func(x float64) float64 { return 2 * x }), g.Source)
	fitOn(g, &doublerEst{weight: 1}, x2)

	ctx := engine.NewContext(1)
	ex := NewExecutor(g, ctx, nil, floatColl([]float64{1, 2, 3}, 1), nil)
	models, _, _ := ex.Run()

	fitted := NewFitted(g, models, ctx)
	// Train mean of 2x data = 4; apply to 10 -> 20 - 4 = 16.
	if got := fitted.TransformOne(10.0).(float64); got != 16 {
		t.Errorf("TransformOne(10) = %g, want 16", got)
	}
}

func TestTopologicalOrder(t *testing.T) {
	g := NewGraph()
	a := g.AddTransform(TypedTransform("a", func(x float64) float64 { return x }), g.Source)
	b := g.AddTransform(TypedTransform("b", func(x float64) float64 { return x }), a)
	order := g.Topological()
	pos := map[int]int{}
	for i, n := range order {
		pos[n.ID] = i
	}
	for _, n := range order {
		for _, d := range n.Deps {
			if pos[d.ID] > pos[n.ID] {
				t.Fatalf("dependency #%d after dependent #%d", d.ID, n.ID)
			}
		}
	}
	if order[len(order)-1].ID != b.ID {
		t.Error("sink is not last in topological order")
	}
}

func TestGraphString(t *testing.T) {
	g := NewGraph()
	g.AddTransform(TypedTransform("myop", func(x float64) float64 { return x }), g.Source)
	s := g.String()
	if !strings.Contains(s, "myop") {
		t.Errorf("graph string missing op name: %q", s)
	}
}

func TestSizeOf(t *testing.T) {
	if SizeOf([]float64{1, 2, 3}) != 8*3+24 {
		t.Error("SizeOf []float64 wrong")
	}
	if SizeOf("hello") != 5+16 {
		t.Error("SizeOf string wrong")
	}
	if SizeOf(nil) != 0 {
		t.Error("SizeOf nil wrong")
	}
	if SizeOf(struct{}{}) != 64 {
		t.Error("SizeOf fallback wrong")
	}
}

func TestTypedTransformPanicsOnWrongType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected type panic")
		}
	}()
	op := TypedTransform("typed", func(x float64) float64 { return x })
	op.Apply("not a float")
}

func TestLabelsRequired(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for missing labels")
		}
	}()
	g := NewGraph()
	g.AddApplyModel(g.AddEstimator(labelReader{}, g.Source, true), g.Source)
	ctx := engine.NewContext(1)
	ex := NewExecutor(g, ctx, nil, floatColl([]float64{1}, 1), nil)
	ex.Run()
}
