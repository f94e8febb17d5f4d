package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"keystoneml/internal/engine"
)

// buildWide constructs a k-branch pipeline: source -> shared -> k parallel
// branches -> gather, optionally with a per-record delay to make branch
// overlap observable in wall time.
func buildWide(k int, delay time.Duration) *Graph {
	g := NewGraph()
	shared := g.AddTransform(TypedTransform("shared", func(x []float64) []float64 { return x }), g.Source)
	branches := make([]*Node, k)
	for i := 0; i < k; i++ {
		scale := float64(i + 1)
		branches[i] = g.AddTransform(TypedTransform(fmt.Sprintf("branch%d", i), func(x []float64) []float64 {
			if delay > 0 {
				time.Sleep(delay)
			}
			out := make([]float64, len(x))
			for j, v := range x {
				out[j] = scale * v
			}
			return out
		}), shared)
	}
	g.AddGather(branches)
	return g
}

func vecColl(n, dim int, parts int) *engine.Collection {
	items := make([]any, n)
	for i := range items {
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64(i*dim + j)
		}
		items[i] = v
	}
	return engine.FromSlice(items, parts)
}

func collectVecs(c *engine.Collection) [][]float64 {
	recs := c.Collect()
	out := make([][]float64, len(recs))
	for i, r := range recs {
		out[i] = r.([]float64)
	}
	return out
}

// runBoth executes the same freshly built graph under the sequential
// oracle and the parallel scheduler and returns both sink outputs.
func runBoth(t *testing.T, build func() *Graph, data, labels *engine.Collection, workers int) (seq, par [][]float64) {
	t.Helper()
	ctx := engine.NewContext(workers)
	exSeq := NewExecutor(build(), ctx, nil, data, labels).SetWorkers(1)
	_, outSeq, _ := exSeq.Run()
	exPar := NewExecutor(build(), ctx, nil, data, labels).SetWorkers(workers)
	if exPar.Workers() != workers {
		t.Fatalf("Workers() = %d, want %d", exPar.Workers(), workers)
	}
	_, outPar, _ := exPar.Run()
	return collectVecs(outSeq), collectVecs(outPar)
}

func assertSameVecs(t *testing.T, seq, par [][]float64) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("record counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if len(seq[i]) != len(par[i]) {
			t.Fatalf("record %d dims differ: %d vs %d", i, len(seq[i]), len(par[i]))
		}
		for j := range seq[i] {
			if seq[i][j] != par[i][j] {
				t.Fatalf("record %d dim %d differs: %g vs %g", i, j, seq[i][j], par[i][j])
			}
		}
	}
}

func TestParallelEquivalenceWideGather(t *testing.T) {
	build := func() *Graph { return buildWide(6, 0) }
	seq, par := runBoth(t, build, vecColl(40, 4, 2), nil, 4)
	assertSameVecs(t, seq, par)
}

func TestParallelEquivalenceWithEstimators(t *testing.T) {
	build := func() *Graph {
		g := NewGraph()
		x3 := g.AddTransform(TypedTransform("x3", func(x float64) float64 { return 3 * x }), g.Source)
		fitOn(g, &doublerEst{weight: 4}, x3)
		return g
	}
	data := []float64{5, 1, -2, 7, 4, 4, -9, 0}
	ctx := engine.NewContext(4)
	exSeq := NewExecutor(build(), ctx, nil, floatColl(data, 2), nil).SetWorkers(1)
	_, outSeq, _ := exSeq.Run()
	exPar := NewExecutor(build(), ctx, nil, floatColl(data, 2), nil).SetWorkers(4)
	modelsPar, outPar, _ := exPar.Run()
	if len(modelsPar) != 1 {
		t.Fatalf("parallel run fitted %d models, want 1", len(modelsPar))
	}
	a, b := outSeq.Collect(), outPar.Collect()
	for i := range a {
		if a[i].(float64) != b[i].(float64) {
			t.Fatalf("outputs differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestParallelLinearChainCountsMatchOracle: on a linear chain there is no
// branch sharing, so compute counts are deterministic and must equal the
// sequential oracle's — including the estimator's iterative refetches.
func TestParallelLinearChainCountsMatchOracle(t *testing.T) {
	build := func() (*Graph, int) {
		g := NewGraph()
		id := g.AddTransform(TypedTransform("id", func(x float64) float64 { return x }), g.Source)
		fitOn(g, &doublerEst{weight: 3}, id)
		return g, id.ID
	}
	ctx := engine.NewContext(4)
	gSeq, idSeq := build()
	_, _, repSeq := NewExecutor(gSeq, ctx, nil, floatColl([]float64{1, 2}, 1), nil).SetWorkers(1).Run()
	gPar, idPar := build()
	_, _, repPar := NewExecutor(gPar, ctx, nil, floatColl([]float64{1, 2}, 1), nil).SetWorkers(4).Run()
	if repSeq.Nodes[idSeq].Computes != repPar.Nodes[idPar].Computes {
		t.Errorf("linear-chain computes diverged: sequential %d, parallel %d",
			repSeq.Nodes[idSeq].Computes, repPar.Nodes[idPar].Computes)
	}
	if repPar.Nodes[idPar].Computes != 4 {
		t.Errorf("upstream transform computed %d times, want 4 (3 passes + 1 apply)", repPar.Nodes[idPar].Computes)
	}
}

// TestParallelSharedPrefixComputesOnce: within one pass a node shared by
// several branches is computed exactly once (the single-flight /
// pass-memoization rule the scheduler is specified to enforce).
func TestParallelSharedPrefixComputesOnce(t *testing.T) {
	g, shared := sharedPrefixGraph()

	ctx := engine.NewContext(4)
	ex := NewExecutor(g, ctx, nil, vecColl(4, 2, 1), nil).SetWorkers(4)
	_, _, report := ex.Run()
	if got := report.Nodes[shared.ID].Computes; got != 1 {
		t.Errorf("shared prefix computed %d times under one pass, want 1", got)
	}
}

// TestParallelCachingStillObserved: pinned-set materialization must keep
// working under the parallel scheduler — the cached node computes once
// and estimator refetches hit.
func TestParallelCachingStillObserved(t *testing.T) {
	g := NewGraph()
	id := g.AddTransform(TypedTransform("id", func(x float64) float64 { return x }), g.Source)
	fitOn(g, &doublerEst{weight: 5}, id)

	ctx := engine.NewContext(4)
	transformID := id.ID
	cache := engine.NewCacheManager(0, engine.NewPinnedSetPolicy([]string{cacheKey(transformID)}))
	ex := NewExecutor(g, ctx, cache, floatColl([]float64{1, 2}, 1), nil).SetWorkers(4)
	_, _, report := ex.Run()
	st := report.Nodes[transformID]
	if st.Computes != 1 {
		t.Errorf("cached transform computed %d times, want 1", st.Computes)
	}
	if st.Hits != 5 {
		t.Errorf("cache hits = %d, want 5 (4 remaining passes + 1 apply)", st.Hits)
	}
}

// TestParallelBranchesOverlap verifies the scheduler actually overlaps
// independent branches: with k sleeping branches and k workers, wall time
// must be well under the sequential sum.
func TestParallelBranchesOverlap(t *testing.T) {
	const k, delay = 4, 30 * time.Millisecond
	data := vecColl(2, 2, 1) // one partition: branch overlap is the only parallelism
	ctx := engine.NewContext(k)

	exSeq := NewExecutor(buildWide(k, delay), ctx, nil, data, nil).SetWorkers(1)
	seqTime := timed(func() { exSeq.Run() })
	exPar := NewExecutor(buildWide(k, delay), ctx, nil, data, nil).SetWorkers(k)
	parTime := timed(func() { exPar.Run() })

	// Sequential: k branches x 2 records x delay. Parallel: branches
	// overlap, so ~2 x delay. Require a conservative 1.5x.
	if parTime > 0 && float64(seqTime)/float64(parTime) < 1.5 {
		t.Errorf("parallel scheduler did not overlap branches: sequential %v, parallel %v", seqTime, parTime)
	}
}

func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// TestParallelWorkerPoolBounded: at most `workers` node computations may
// run concurrently, whatever the DAG width.
func TestParallelWorkerPoolBounded(t *testing.T) {
	const workers, branches = 2, 8
	var mu sync.Mutex
	running, peak := 0, 0
	g := NewGraph()
	bs := make([]*Node, branches)
	for i := 0; i < branches; i++ {
		bs[i] = g.AddTransform(TypedTransform(fmt.Sprintf("b%d", i), func(x []float64) []float64 {
			mu.Lock()
			running++
			if running > peak {
				peak = running
			}
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
			mu.Lock()
			running--
			mu.Unlock()
			return x
		}), g.Source)
	}
	g.AddGather(bs)
	ctx := engine.NewContext(1) // one record partition -> one Map worker per node
	ex := NewExecutor(g, ctx, nil, vecColl(1, 2, 1), nil).SetWorkers(workers)
	ex.Run()
	if peak > workers {
		t.Errorf("worker pool bound violated: %d nodes computing concurrently, bound %d", peak, workers)
	}
	if peak < 2 {
		t.Errorf("no overlap observed (peak %d); scheduler appears sequential", peak)
	}
}

// countingEst tracks how many fits are inside their compute section at
// once (after the input fetch, which legitimately yields the slot).
type countingEst struct {
	mu      *sync.Mutex
	running *int
	peak    *int
}

func (c countingEst) Name() string { return "test.countingEst" }
func (c countingEst) Fit(ctx *engine.Context, data Fetch, labels Fetch) TransformOp {
	data()
	c.mu.Lock()
	*c.running++
	if *c.running > *c.peak {
		*c.peak = *c.running
	}
	c.mu.Unlock()
	time.Sleep(5 * time.Millisecond)
	c.mu.Lock()
	*c.running--
	c.mu.Unlock()
	return IdentityOp()
}

// TestParallelEstimatorFitsBounded: estimator fits occupy worker slots
// for their compute sections too — the pool bound covers every node
// kind, not just transforms.
func TestParallelEstimatorFitsBounded(t *testing.T) {
	const workers, branches = 2, 6
	var mu sync.Mutex
	running, peak := 0, 0
	g := NewGraph()
	bs := make([]*Node, branches)
	for i := 0; i < branches; i++ {
		pre := g.AddTransform(TypedTransform(fmt.Sprintf("pre%d", i), func(x []float64) []float64 { return x }), g.Source)
		bs[i] = fitOn(g, countingEst{mu: &mu, running: &running, peak: &peak}, pre)
	}
	g.AddGather(bs)
	ctx := engine.NewContext(workers)
	ex := NewExecutor(g, ctx, nil, vecColl(2, 2, 1), nil).SetWorkers(workers)
	ex.Run()
	if peak > workers {
		t.Errorf("estimator fits escaped the worker pool: %d concurrent, bound %d", peak, workers)
	}
	if peak < 2 {
		t.Errorf("no fit overlap observed (peak %d); estimators appear serialized", peak)
	}
}

// TestParallelPanicPropagates: a panic inside an operator must surface to
// the Run caller, not hang the pass or die in a worker goroutine.
func TestParallelPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected operator panic to propagate through the scheduler")
		}
	}()
	g := NewGraph()
	ok := g.AddTransform(TypedTransform("fine", func(x []float64) []float64 { return x }), g.Source)
	boom := g.AddTransform(TypedTransform("boom", func(x []float64) []float64 { panic("operator exploded") }), g.Source)
	g.AddGather([]*Node{ok, boom})
	ctx := engine.NewContext(4)
	NewExecutor(g, ctx, nil, vecColl(3, 2, 1), nil).SetWorkers(4).Run()
}

// TestParallelTinyCacheStress hammers the scheduler with shared subtrees
// and a cache budget small enough to force constant admission/eviction
// churn; run under -race this exercises every lock in the executor,
// cache manager and single-flight paths.
func TestParallelTinyCacheStress(t *testing.T) {
	build := func() *Graph {
		g := NewGraph()
		shared := g.AddTransform(TypedTransform("shared", func(x []float64) []float64 { return x }), g.Source)
		var branches []*Node
		for i := 0; i < 5; i++ {
			scale := float64(i + 1)
			b := g.AddTransform(TypedTransform(fmt.Sprintf("scale%d", i), func(x []float64) []float64 {
				out := make([]float64, len(x))
				for j, v := range x {
					out[j] = scale * v
				}
				return out
			}), shared)
			branches = append(branches, b)
		}
		fitOn(g, &doublerVecEst{weight: 4}, g.AddGather(branches))
		return g
	}
	data := vecColl(16, 3, 4)
	ctx := engine.NewContext(4)
	var ref [][]float64
	for trial := 0; trial < 6; trial++ {
		cache := engine.NewCacheManager(700, engine.NewLRUPolicy()) // a few vectors at most
		ex := NewExecutor(build(), ctx, cache, data, nil).SetWorkers(4)
		_, out, _ := ex.Run()
		got := collectVecs(out)
		if trial == 0 {
			ref = got
		} else {
			assertSameVecs(t, ref, got)
		}
		if used := cache.Stats().UsedBytes; used > 700 {
			t.Fatalf("cache over budget under concurrency: %d", used)
		}
	}
}

// doublerVecEst is a vector analogue of doublerEst: learns the per-dim
// mean over `weight` passes and subtracts it.
type doublerVecEst struct {
	weight int
}

func (d *doublerVecEst) Name() string { return "test.vecMeanCenter" }
func (d *doublerVecEst) Weight() int  { return d.weight }
func (d *doublerVecEst) Fit(ctx *engine.Context, data Fetch, labels Fetch) TransformOp {
	passes := d.weight
	if passes < 1 {
		passes = 1
	}
	var mean []float64
	for p := 0; p < passes; p++ {
		c := data()
		recs := c.Collect()
		mean = make([]float64, len(recs[0].([]float64)))
		for _, r := range recs {
			for j, v := range r.([]float64) {
				mean[j] += v
			}
		}
		for j := range mean {
			mean[j] /= float64(len(recs))
		}
	}
	return NewTransform("test.subVecMean", func(in any) any {
		x := in.([]float64)
		out := make([]float64, len(x))
		for j := range x {
			out[j] = x[j] - mean[j]
		}
		return out
	})
}

// TestParallelConcurrentExecutors runs several parallel executors over
// the same shared collections at once — the engine and collections must
// tolerate cross-executor concurrency.
func TestParallelConcurrentExecutors(t *testing.T) {
	data := vecColl(20, 3, 2)
	var wg sync.WaitGroup
	outs := make([][][]float64, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx := engine.NewContext(2)
			ex := NewExecutor(buildWide(4, 0), ctx, nil, data, nil).SetWorkers(2)
			_, out, _ := ex.Run()
			outs[r] = collectVecs(out)
		}(r)
	}
	wg.Wait()
	for r := 1; r < 4; r++ {
		assertSameVecs(t, outs[0], outs[r])
	}
}
