package solvers

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
)

// The oracle: the record-at-a-time pass this package shipped before the
// solver pass became matrix kernels, kept verbatim (one backend axpy per
// non-zero feature, zero features skipped, loss computed alongside).
// Every production path is pinned to it bit for bit.

func oracleScoreRow(p *partPair, r int, w *linalg.Matrix, out []float64) {
	for j := range out {
		out[j] = 0
	}
	k := w.Cols
	if p.dense != nil {
		for i, xi := range p.dense.Row(r) {
			if xi == 0 {
				continue
			}
			row := w.Row(i)
			for j := 0; j < k; j++ {
				out[j] += xi * row[j]
			}
		}
		return
	}
	sv := p.sparse[r]
	for pos, i := range sv.Idx {
		xi := sv.Val[pos]
		row := w.Row(i)
		for j := 0; j < k; j++ {
			out[j] += xi * row[j]
		}
	}
}

func oracleSoftmaxResidual(scores, y []float64) float64 {
	maxS := scores[0]
	for _, v := range scores[1:] {
		if v > maxS {
			maxS = v
		}
	}
	var z float64
	for j, v := range scores {
		e := math.Exp(v - maxS)
		scores[j] = e
		z += e
	}
	var loss float64
	for j := range scores {
		p := scores[j] / z
		if y[j] > 0 && p > 1e-15 {
			loss -= y[j] * math.Log(p)
		}
		scores[j] = p - y[j]
	}
	return loss
}

func oracleGradient(s *LBFGS, pairs []partPair, w []float64, d, k int) []float64 {
	total := make([]float64, d*k)
	n := 0
	wm := linalg.Matrix{Rows: d, Cols: k, Data: w}
	for pi := range pairs {
		p := &pairs[pi]
		g := make([]float64, d*k)
		pred := make([]float64, k)
		for r := 0; r < p.rows(); r++ {
			oracleScoreRow(p, r, &wm, pred)
			y := p.labels.Row(r)
			if s.Objective == LogisticLoss {
				oracleSoftmaxResidual(pred, y)
			} else {
				for j := 0; j < k; j++ {
					pred[j] -= y[j]
				}
			}
			if p.dense != nil {
				for i, xi := range p.dense.Row(r) {
					if xi == 0 {
						continue
					}
					linalg.AxpyInPlace(xi, pred, g[i*k:i*k+k])
				}
			} else {
				sv := p.sparse[r]
				for pos, i := range sv.Idx {
					linalg.AxpyInPlace(sv.Val[pos], pred, g[i*k:i*k+k])
				}
			}
		}
		linalg.AxpyInPlace(1, g, total)
		n += p.rows()
	}
	inv := 1.0 / float64(max(n, 1))
	for i := range total {
		total[i] = total[i]*inv + s.Lambda*w[i]
	}
	return total
}

func oracleSquaredLoss(pairs []partPair, w *linalg.Matrix) float64 {
	var total float64
	var n int
	pred := make([]float64, w.Cols)
	for pi := range pairs {
		p := &pairs[pi]
		for r := 0; r < p.rows(); r++ {
			oracleScoreRow(p, r, w, pred)
			for j, yj := range p.labels.Row(r) {
				diff := pred[j] - yj
				total += diff * diff
			}
		}
		n += p.rows()
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// passCase is one design-matrix shape: partition row counts (0 = an empty
// partition), feature and class counts, and nnz per row (0 = dense).
type passCase struct {
	name  string
	parts []int
	d, k  int
	nnz   int
}

var passCases = []passCase{
	{"dense", []int{37, 50}, 13, 3, 0},
	{"dense-empty-partition", []int{9, 0, 6}, 7, 2, 0},
	{"dense-single-row", []int{1}, 5, 3, 0},
	{"dense-k1", []int{11, 5}, 6, 1, 0},
	{"dense-wide", []int{70, 130}, 66, 8, 0}, // rows beyond the reference GEMM's 64-tile
	{"sparse", []int{40, 23}, 31, 2, 5},
	{"sparse-empty-partition", []int{0, 14}, 17, 3, 3},
	{"sparse-single-row", []int{1}, 9, 2, 2},
	{"sparse-k1", []int{10, 3}, 8, 1, 2},
}

// build generates the case's collections. Features carry exact zeros of
// both signs; labels are one-hot (valid for both objectives), and the
// last row of every multi-row partition is all-zero features with an all-zero
// label, so under w = 0 its square-loss residual is exactly zero.
func (c passCase) build(seed uint64) (data, labels *engine.Collection) {
	rng := linalg.NewRNG(seed)
	var fparts, lparts [][]any
	for _, rows := range c.parts {
		feat, lab := make([]any, rows), make([]any, rows)
		for r := range feat {
			y := make([]float64, c.k)
			x := rng.GaussianVector(c.d)
			if r == rows-1 && rows > 1 {
				x = make([]float64, c.d)
			} else {
				y[r%c.k] = 1
				x[r%c.d] = 0
				x[(r+2)%c.d] = math.Copysign(0, -1)
			}
			lab[r] = y
			if c.nnz == 0 {
				feat[r] = x
				continue
			}
			// Built directly: NewSparseVector would drop the stored zeros.
			sv := &linalg.SparseVector{Dim: c.d, Idx: rng.Perm(c.d)[:c.nnz]}
			sort.Ints(sv.Idx)
			for _, i := range sv.Idx {
				sv.Val = append(sv.Val, x[i])
			}
			feat[r] = sv
		}
		fparts, lparts = append(fparts, feat), append(lparts, lab)
	}
	return engine.FromPartitions(fparts), engine.FromPartitions(lparts)
}

// kernelModes runs fn under the reference backend, the blocked backend,
// and auto dispatch with a crossover low enough that the test shapes
// straddle it; the prior mode and crossover are restored afterwards.
func kernelModes(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	prevMode := linalg.Mode()
	prevCross, hadCross := linalg.InstalledCrossover()
	defer func() {
		linalg.SetBackendMode(prevMode)
		if hadCross {
			linalg.InstallCrossover(prevCross)
		} else {
			linalg.ClearCrossover()
		}
	}()
	for _, m := range []struct {
		name  string
		mode  linalg.BackendMode
		cross *linalg.Crossover
	}{
		{"reference", linalg.ModeReference, nil},
		{"blocked", linalg.ModeBlocked, nil},
		{"crossover", linalg.ModeAuto, &linalg.Crossover{GemmFlops: 2000, GemvFlops: 200, VecFlops: 12}},
	} {
		linalg.SetBackendMode(m.mode)
		linalg.ClearCrossover()
		if m.cross != nil {
			linalg.InstallCrossover(*m.cross)
		}
		t.Run(m.name, fn)
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestGradientPassMatchesRowLoop pins the matrix-kernel pass (and the
// inlined sparse pass) to the row-loop oracle: same bits, signed zeros
// included, for both objectives, with w = 0 (the first pass) and then
// with the scratch reused across two further passes at non-zero w.
func TestGradientPassMatchesRowLoop(t *testing.T) {
	ctx := engine.NewContext(3)
	kernelModes(t, func(t *testing.T) {
		for _, c := range passCases {
			for _, obj := range []Loss{SquareLoss, LogisticLoss} {
				t.Run(fmt.Sprintf("%s/%s", c.name, obj), func(t *testing.T) {
					data, labels := c.build(11)
					s := &LBFGS{Objective: obj, Lambda: 1e-3}
					pairs := pairPartitions(nil, data, labels)
					if _, d, k := dims(pairs); d != c.d || k != c.k {
						t.Fatalf("dims = %d x %d, want %d x %d", d, k, c.d, c.k)
					}
					var sc passScratch
					w := make([]float64, c.d*c.k)
					rng := linalg.NewRNG(5)
					for pass := 0; pass < 3; pass++ {
						got := s.gradient(ctx, pairs, &sc, w, c.d, c.k)
						sameBits(t, fmt.Sprintf("pass %d gradient", pass), got, oracleGradient(s, pairs, w, c.d, c.k))
						wm := &linalg.Matrix{Rows: c.d, Cols: c.k, Data: w}
						if got, want := squaredLoss(pairs, wm), oracleSquaredLoss(pairs, wm); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("pass %d squaredLoss = %v, want %v", pass, got, want)
						}
						w = rng.GaussianVector(c.d * c.k)
						w[0] = 0
					}
				})
			}
		}
	})
}

// countingFetch returns c on every call, through fresh when non-nil, and
// counts the calls.
func countingFetch(c *engine.Collection, calls *int, fresh func(*engine.Collection) *engine.Collection) core.Fetch {
	return func() *engine.Collection {
		*calls++
		if fresh != nil {
			return fresh(c)
		}
		return c
	}
}

// recomputed copies every partition, as an unmaterialized input does on
// each fetch.
func recomputed(c *engine.Collection) *engine.Collection {
	parts := make([][]any, c.NumPartitions())
	for i := range parts {
		parts[i] = append([]any(nil), c.Partition(i)...)
	}
	return engine.FromPartitions(parts)
}

// TestFitFetchesOncePerPassAndPacksOnce checks the two halves of the
// iterative contract: the solver fetches its input exactly Weight()
// times whether or not the input is materialized (that count is what the
// cost model charges and what a dist shuffle costs), and a materialized
// input is packed once per Fit — total allocation stays under three
// design matrices (X, Xᵀ, and slack for scratch and L-BFGS history)
// where packing per pass would take one per iteration.
func TestFitFetchesOncePerPassAndPacksOnce(t *testing.T) {
	const n, d, k, iters = 2000, 256, 8, 10
	data, labels, _ := makeDense(21, n, d, k, 2)
	ctx := engine.NewContext(2)
	s := &LBFGS{Iterations: iters}

	var cached, fresh int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	held := s.Fit(ctx, countingFetch(data, &cached, nil), fetchOf(labels)).(*LinearMapper)
	runtime.ReadMemStats(&after)
	refit := s.Fit(ctx, countingFetch(data, &fresh, recomputed), fetchOf(labels)).(*LinearMapper)

	if cached != s.Weight() || fresh != s.Weight() {
		t.Errorf("fetches = %d cached, %d recomputed; want Weight() = %d for both", cached, fresh, s.Weight())
	}
	if !reflect.DeepEqual(held, refit) {
		t.Error("model differs between a held and a recomputed input")
	}
	design := uint64(n * d * 8)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 3*design {
		t.Errorf("Fit allocated %d bytes, want < 3 design matrices (%d): a cached input must be packed once", got, 3*design)
	}
}

// TestFitIndependentOfKernelBackend: the fitted model is the same value
// under every dispatch mode and worker count, for every solver that
// shares the pass.
func TestFitIndependentOfKernelBackend(t *testing.T) {
	dense, dlab := passCases[4].build(3)
	sparse, slab := passCases[5].build(4)
	ests := []core.EstimatorOp{
		&LBFGS{Iterations: 6}, &LBFGS{Iterations: 6, Objective: LogisticLoss},
		&SGD{Epochs: 2, BatchSize: 16}, &BlockSolver{BlockSize: 16, Sweeps: 2}, &DistributedQR{},
	}
	want := map[string]core.TransformOp{}
	kernelModes(t, func(t *testing.T) {
		for i, est := range ests {
			for _, in := range []struct {
				kind         string
				data, labels *engine.Collection
			}{{"dense", dense, dlab}, {"sparse", sparse, slab}} {
				key := fmt.Sprintf("%d/%s/%s", i, est.Name(), in.kind)
				for _, workers := range []int{1, 4} {
					got := est.Fit(engine.NewContext(workers), fetchOf(in.data), fetchOf(in.labels))
					if w, ok := want[key]; !ok {
						want[key] = got
					} else if !reflect.DeepEqual(got, w) {
						t.Errorf("%s: model at %d workers differs from the reference backend's at 1", key, workers)
					}
				}
			}
		}
	})
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestPairPartitionsRejectsMalformedInput(t *testing.T) {
	one := engine.FromSlice([]any{[]float64{1}}, 1)
	mustPanic(t, "partition count mismatch", func() {
		pairPartitions(nil, one, engine.FromSlice([]any{[]float64{1}, []float64{2}}, 2))
	})
	mustPanic(t, "record count mismatch", func() {
		pairPartitions(nil, one, engine.FromSlice([]any{[]float64{1}, []float64{2}}, 1))
	})
	mustPanic(t, "ragged rows", func() {
		pairPartitions(nil, engine.FromSlice([]any{[]float64{1, 2}, []float64{3}}, 1), engine.FromSlice([]any{[]float64{1}, []float64{0}}, 1))
	})
	mustPanic(t, "non-vector labels", func() {
		pairPartitions(nil, one, engine.FromSlice([]any{"x"}, 1))
	})
}

// BenchmarkLBFGSPass times one gradient pass (ns/op is ns per pass) over
// a held, already packed input with the Fit-lifetime scratch in place:
// the speech-shaped dense design matrix under each kernel backend, the
// text-shaped sparse one, and the row-loop oracle on the dense shape as
// the fixed point the kernels are measured against.
func BenchmarkLBFGSPass(b *testing.B) {
	ctx := engine.NewContext(1)
	dense, dlab, _ := makeDense(1, 3000, 512, 8, 1)
	sparse, slab := makeSparse(2, 6000, 5000, 2, 60, 1)
	defer linalg.SetBackendMode(linalg.Mode())
	for _, bc := range []struct {
		name         string
		mode         linalg.BackendMode
		data, labels *engine.Collection
		oracle       bool
	}{
		{"dense-3000x512x8/reference", linalg.ModeReference, dense, dlab, false},
		{"dense-3000x512x8/blocked", linalg.ModeBlocked, dense, dlab, false},
		{"dense-3000x512x8/rowloop-oracle", linalg.ModeBlocked, dense, dlab, true},
		{"sparse-6000x5000x60nnz-k2", linalg.ModeBlocked, sparse, slab, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			linalg.SetBackendMode(bc.mode)
			pairs := pairPartitions(nil, bc.data, bc.labels)
			_, d, k := dims(pairs)
			s := &LBFGS{}
			var sc passScratch
			w := linalg.NewRNG(9).GaussianVector(d * k)
			s.gradient(ctx, pairs, &sc, w, d, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.oracle {
					oracleGradient(s, pairs, w, d, k)
				} else {
					s.gradient(ctx, pairs, &sc, w, d, k)
				}
			}
		})
	}
}

// TestLinearMapperBlockBits pins the block scores (one TMul over a
// feature-major block) to Apply's row loop bit for bit under both
// backends, on features and weights that are +0, −0 or cancel to zero:
// skipping a zero product (Apply skips zero features, the reference
// TMul zero weights, the blocked one nothing) cannot change a bit.
func TestLinearMapperBlockBits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	const d, k, n = 6, 3, 70
	rng := linalg.NewRNG(21)
	w := rng.GaussianMatrix(d, k)
	w.Set(1, 0, 0)
	w.Set(2, 1, negZero)
	w.Set(4, 2, -w.At(3, 2)) // a score whose features 3 and 4 cancel
	m := &LinearMapper{W: w, SolverName: "test"}
	x := linalg.NewMatrix(d, n)
	for r := 0; r < n; r++ {
		for i := 0; i < d; i++ {
			switch (r + i) % 4 {
			case 0:
				x.Set(i, r, 0)
			case 1:
				x.Set(i, r, negZero)
			default:
				x.Set(i, r, rng.Float64()-0.5)
			}
		}
		if r%5 == 0 {
			for i := 0; i < d; i++ {
				x.Set(i, r, negZero)
			}
		}
		if r%7 == 0 {
			x.Set(3, r, 1)
			x.Set(4, r, 1)
		}
	}
	defer linalg.SetBackendMode(linalg.Mode())
	for _, mode := range []linalg.BackendMode{linalg.ModeReference, linalg.ModeBlocked} {
		linalg.SetBackendMode(mode)
		dst := linalg.NewMatrix(k, n)
		if err := m.ApplyBlock(dst, x); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < n; r++ {
			want := m.Apply(x.Col(r)).([]float64)
			for j := range want {
				if got := dst.At(j, r); math.Float64bits(got) != math.Float64bits(want[j]) {
					t.Fatalf("mode %d record %d class %d: block %v, Apply %v", mode, r, j, got, want[j])
				}
			}
		}
	}
	if err := m.ApplyBlock(linalg.NewMatrix(k, n), linalg.NewMatrix(d+1, n)); err == nil {
		t.Error("a block of the wrong width scored without an error")
	}
}
