package solvers

import (
	"math"
	"testing"

	"keystoneml/internal/cluster"
	"keystoneml/internal/core"
	"keystoneml/internal/cost"
	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
)

// makeDense builds a synthetic consistent regression problem: A (n x d)
// Gaussian, planted X* (d x k), B = A X*. Returns feature and label
// collections plus the planted solution.
func makeDense(seed uint64, n, d, k, parts int) (*engine.Collection, *engine.Collection, *linalg.Matrix) {
	rng := linalg.NewRNG(seed)
	a := rng.GaussianMatrix(n, d)
	xTrue := rng.GaussianMatrix(d, k)
	b := a.Mul(xTrue)
	feats := make([]any, n)
	labs := make([]any, n)
	for i := 0; i < n; i++ {
		feats[i] = linalg.CloneVec(a.Row(i))
		labs[i] = linalg.CloneVec(b.Row(i))
	}
	return engine.FromSlice(feats, parts), engine.FromSlice(labs, parts), xTrue
}

// makeSparse builds a sparse problem with s nonzeros per row.
func makeSparse(seed uint64, n, d, k, nnz, parts int) (*engine.Collection, *engine.Collection) {
	rng := linalg.NewRNG(seed)
	xTrue := rng.GaussianMatrix(d, k)
	feats := make([]any, n)
	labs := make([]any, n)
	for i := 0; i < n; i++ {
		idx := rng.Perm(d)[:nnz]
		val := rng.GaussianVector(nnz)
		sv := linalg.NewSparseVector(d, idx, val)
		feats[i] = sv
		y := make([]float64, k)
		for p, ii := range sv.Idx {
			for j := 0; j < k; j++ {
				y[j] += sv.Val[p] * xTrue.At(ii, j)
			}
		}
		labs[i] = y
	}
	return engine.FromSlice(feats, parts), engine.FromSlice(labs, parts)
}

func fetchOf(c *engine.Collection) core.Fetch { return func() *engine.Collection { return c } }

func fitLoss(t *testing.T, est core.EstimatorOp, data, labels *engine.Collection) (*LinearMapper, float64) {
	t.Helper()
	ctx := engine.NewContext(4)
	model := est.Fit(ctx, fetchOf(data), fetchOf(labels))
	lm, ok := model.(*LinearMapper)
	if !ok {
		t.Fatalf("%s returned %T, want *LinearMapper", est.Name(), model)
	}
	return lm, lm.TrainLoss
}

func TestAllSolversReachOptimum(t *testing.T) {
	data, labels, xTrue := makeDense(1, 120, 10, 3, 4)
	ests := []core.EstimatorOp{
		&LocalQR{},
		&DistributedQR{},
		&BlockSolver{BlockSize: 4, Sweeps: 25, Lambda: 1e-9},
		&LBFGS{Iterations: 120},
	}
	for _, est := range ests {
		lm, loss := fitLoss(t, est, data, labels)
		if loss > 1e-4 {
			t.Errorf("%s: train loss %g, want ~0 on consistent system", est.Name(), loss)
		}
		if !linalg.Equal(lm.W, xTrue, 1e-2) {
			t.Errorf("%s: recovered weights differ from planted solution (max err %g)",
				est.Name(), lm.W.Clone().Sub(xTrue).MaxAbs())
		}
	}
}

func TestSolversAgreeOnInconsistentSystem(t *testing.T) {
	// Noisy labels: all exact solvers must agree with each other and
	// satisfy the normal equations.
	rng := linalg.NewRNG(2)
	n, d, k := 80, 6, 2
	a := rng.GaussianMatrix(n, d)
	b := rng.GaussianMatrix(n, k)
	feats := make([]any, n)
	labs := make([]any, n)
	for i := 0; i < n; i++ {
		feats[i] = linalg.CloneVec(a.Row(i))
		labs[i] = linalg.CloneVec(b.Row(i))
	}
	data := engine.FromSlice(feats, 3)
	labels := engine.FromSlice(labs, 3)

	local, _ := fitLoss(t, &LocalQR{}, data, labels)
	dist, _ := fitLoss(t, &DistributedQR{}, data, labels)
	if !linalg.Equal(local.W, dist.W, 1e-6) {
		t.Errorf("local QR and distributed QR disagree by %g", local.W.Clone().Sub(dist.W).MaxAbs())
	}
	grad := a.TMul(a.Mul(local.W).Sub(b))
	if grad.MaxAbs() > 1e-7 {
		t.Errorf("LocalQR violates normal equations: %g", grad.MaxAbs())
	}
}

func TestDistributedQRShortPartitionsFallback(t *testing.T) {
	// Partitions shorter than d force the normal-equations path.
	data, labels, xTrue := makeDense(3, 40, 20, 2, 8) // 5 rows/partition < d=20
	lm, loss := fitLoss(t, &DistributedQR{}, data, labels)
	if loss > 1e-4 {
		t.Errorf("fallback path loss = %g", loss)
	}
	if !linalg.Equal(lm.W, xTrue, 1e-2) {
		t.Error("fallback path did not recover planted solution")
	}
}

func TestLBFGSSparse(t *testing.T) {
	data, labels := makeSparse(4, 200, 50, 2, 5, 4)
	_, loss := fitLoss(t, &LBFGS{Iterations: 150}, data, labels)
	if loss > 1e-3 {
		t.Errorf("sparse LBFGS loss = %g, want near zero", loss)
	}
}

func TestSparseSolversAgree(t *testing.T) {
	data, labels := makeSparse(5, 150, 30, 2, 4, 3)
	exact, _ := fitLoss(t, &LocalQR{}, data, labels)
	lbfgs, _ := fitLoss(t, &LBFGS{Iterations: 200}, data, labels)
	if !linalg.Equal(exact.W, lbfgs.W, 5e-2) {
		t.Errorf("sparse exact vs lbfgs max diff %g", exact.W.Clone().Sub(lbfgs.W).MaxAbs())
	}
}

func TestSGDReducesLoss(t *testing.T) {
	data, labels, _ := makeDense(6, 200, 8, 2, 4)
	_, loss := fitLoss(t, &SGD{Epochs: 30, StepSize: 0.05}, data, labels)
	// Initial loss with W=0 equals mean ||y||²/2; SGD must beat it clearly.
	var init float64
	for _, r := range labels.Collect() {
		for _, v := range r.([]float64) {
			init += 0.5 * v * v
		}
	}
	init /= float64(labels.Count())
	if loss > init/4 {
		t.Errorf("SGD loss %g did not improve enough over initial %g", loss, init)
	}
}

func TestLogisticLBFGSSeparatesClasses(t *testing.T) {
	// Two well-separated Gaussian blobs, one-hot labels.
	rng := linalg.NewRNG(7)
	n, d := 200, 5
	feats := make([]any, n)
	labs := make([]any, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		x := rng.GaussianVector(d)
		x[0] += float64(cls*6 - 3)
		feats[i] = x
		y := make([]float64, 2)
		y[cls] = 1
		labs[i] = y
	}
	data := engine.FromSlice(feats, 4)
	labels := engine.FromSlice(labs, 4)
	model := (&LBFGS{Iterations: 60, Objective: LogisticLoss}).Fit(engine.NewContext(4), fetchOf(data), fetchOf(labels))
	correct := 0
	for i, f := range data.Collect() {
		scores := model.Apply(f).([]float64)
		pred := linalg.ArgMax(scores)
		if pred == i%2 {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.95 {
		t.Errorf("logistic accuracy = %.2f, want >= 0.95", acc)
	}
}

func TestLinearMapperScoring(t *testing.T) {
	w := linalg.NewMatrixFrom([][]float64{{1, 0}, {0, 2}, {3, 0}})
	m := &LinearMapper{W: w}
	got := m.Apply([]float64{1, 1, 1}).([]float64)
	if got[0] != 4 || got[1] != 2 {
		t.Errorf("dense scores = %v, want [4 2]", got)
	}
	sv := linalg.NewSparseVector(3, []int{2}, []float64{2})
	got = m.Apply(sv).([]float64)
	if got[0] != 6 || got[1] != 0 {
		t.Errorf("sparse scores = %v, want [6 0]", got)
	}
}

func TestLinearMapperDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected dimension panic")
		}
	}()
	m := &LinearMapper{W: linalg.NewMatrix(3, 2)}
	m.Apply([]float64{1, 2})
}

func TestLinearSolverIsOptimizableAndIterative(t *testing.T) {
	var est core.EstimatorOp = &LinearSolver{}
	opt, ok := est.(core.Optimizable)
	if !ok {
		t.Fatal("LinearSolver must implement core.Optimizable")
	}
	if got := len(opt.Options()); got != 4 {
		t.Errorf("options = %d, want 4 (Table 1)", got)
	}
	it, ok := est.(core.Iterative)
	if !ok || it.Weight() < 2 {
		t.Error("LinearSolver must be Iterative with weight > 1")
	}
}

func TestCostModelSparseFavorsLBFGS(t *testing.T) {
	// Amazon-like: very sparse, many features → L-BFGS must win.
	res := cluster.R3_4XLarge(16)
	ls := &LinearSolver{MemLimitBytes: 8e9}
	stats := cost.DataStats{N: 1_000_000, Dim: 100_000, K: 2, Sparsity: 0.001}
	opts := ls.Options()
	idx := cost.Choose(opts, stats, res)
	if name := opts[idx].Model.Name(); name != "solver.lbfgs" {
		t.Errorf("sparse choice = %s, want solver.lbfgs", name)
	}
}

func TestCostModelDenseSmallFavorsExact(t *testing.T) {
	// TIMIT-like small d: exact solve must win.
	res := cluster.R3_4XLarge(16)
	ls := &LinearSolver{MemLimitBytes: 100e9}
	stats := cost.DataStats{N: 2_000_000, Dim: 1024, K: 147, Sparsity: 1}
	opts := ls.Options()
	idx := cost.Choose(opts, stats, res)
	name := opts[idx].Model.Name()
	if name != "solver.exact.dist-qr" && name != "solver.exact.local-qr" {
		t.Errorf("dense small-d choice = %s, want an exact solver", name)
	}
}

func TestCostModelDenseWideFavorsBlock(t *testing.T) {
	// TIMIT-like beyond 8k features: block solver must win.
	res := cluster.R3_4XLarge(16)
	ls := &LinearSolver{MemLimitBytes: 100e9}
	stats := cost.DataStats{N: 2_000_000, Dim: 16384, K: 147, Sparsity: 1}
	opts := ls.Options()
	idx := cost.Choose(opts, stats, res)
	if name := opts[idx].Model.Name(); name != "solver.block" {
		t.Errorf("dense wide choice = %s, want solver.block", name)
	}
}

func TestCostModelExactInfeasibleWhenTooLarge(t *testing.T) {
	c := localQRCost{memLimitBytes: 1e9}
	p := c.Cost(cost.DataStats{N: 10_000_000, Dim: 100_000, K: 2, Sparsity: 1}, 16)
	if p.Flops >= 0 {
		t.Error("oversized dense problem should be infeasible for local QR")
	}
}

func TestSolverCostSecondsMonotonicInNodes(t *testing.T) {
	// More workers must not increase distributed solver estimates.
	stats := cost.DataStats{N: 1_000_000, Dim: 4096, K: 10, Sparsity: 1}
	c := lbfgsCost{iters: 50}
	t8 := c.Cost(stats, 8).Seconds(cluster.R3_4XLarge(8))
	t64 := c.Cost(stats, 64).Seconds(cluster.R3_4XLarge(64))
	if t64 >= t8 {
		t.Errorf("lbfgs estimate did not improve with nodes: %g -> %g", t8, t64)
	}
}

func TestSquaredLossZeroForPerfectModel(t *testing.T) {
	data, labels, xTrue := makeDense(8, 30, 4, 2, 2)
	pairs := pairPartitions(nil, data, labels)
	if l := squaredLoss(pairs, xTrue); l > 1e-18 {
		t.Errorf("perfect model loss = %g", l)
	}
	zero := linalg.NewMatrix(4, 2)
	if l := squaredLoss(pairs, zero); l <= 0 {
		t.Errorf("zero model loss = %g, want > 0", l)
	}
}

func TestLossString(t *testing.T) {
	if SquareLoss.String() != "square" || LogisticLoss.String() != "logistic" {
		t.Error("Loss.String wrong")
	}
	if math.Abs(float64(SquareLoss)) != 0 {
		t.Error("SquareLoss must be the zero value")
	}
}
