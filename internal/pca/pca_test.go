package pca

import (
	"fmt"
	"math"
	"testing"

	"keystoneml/internal/cluster"
	"keystoneml/internal/core"
	"keystoneml/internal/cost"
	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
)

// lowRankData builds n records that live (plus tiny noise) in a k-dim
// subspace of R^d.
func lowRankData(seed uint64, n, d, k int, noise float64) *engine.Collection {
	rng := linalg.NewRNG(seed)
	basis := rng.GaussianMatrix(k, d)
	items := make([]any, n)
	for i := 0; i < n; i++ {
		coef := rng.GaussianVector(k)
		x := make([]float64, d)
		for j := 0; j < k; j++ {
			linalg.AxpyInPlace(coef[j], basis.Row(j), x)
		}
		for j := range x {
			x[j] += noise * rng.Gaussian()
		}
		items[i] = x
	}
	return engine.FromSlice(items, 4)
}

func fetchOf(c *engine.Collection) core.Fetch { return func() *engine.Collection { return c } }

// varianceCaptured returns the fraction of total variance retained by the
// projection.
func varianceCaptured(c *engine.Collection, proj core.TransformOp, d int) float64 {
	var totalVar, projVar float64
	items := c.Collect()
	// total variance (after centering)
	mean := make([]float64, d)
	for _, it := range items {
		linalg.AxpyInPlace(1, it.([]float64), mean)
	}
	linalg.ScaleInPlace(1/float64(len(items)), mean)
	for _, it := range items {
		x := it.([]float64)
		for j, v := range x {
			dv := v - mean[j]
			totalVar += dv * dv
		}
		y := proj.Apply(it).([]float64)
		for _, v := range y {
			projVar += v * v
		}
	}
	return projVar / totalVar
}

func TestAllPCAVariantsCaptureSubspace(t *testing.T) {
	n, d, k := 200, 20, 3
	data := lowRankData(1, n, d, k, 0.01)
	ctx := engine.NewContext(4)
	ests := []core.EstimatorOp{
		&LocalSVD{K: k},
		&LocalTSVD{K: k, Iters: 3},
		&DistSVD{K: k},
		&DistTSVD{K: k, Iters: 3},
	}
	for _, est := range ests {
		proj := est.Fit(ctx, fetchOf(data), nil)
		got := varianceCaptured(data, proj, d)
		if got < 0.99 {
			t.Errorf("%s captured %.4f of variance, want >= 0.99", est.Name(), got)
		}
		// Output dimensionality is k.
		out := proj.Apply(data.Take(1)[0]).([]float64)
		if len(out) != k {
			t.Errorf("%s output dim = %d, want %d", est.Name(), len(out), k)
		}
	}
}

func TestPCAVariantsAgreeOnSubspace(t *testing.T) {
	// Principal subspaces must agree even if individual component signs
	// differ: compare projection matrices via P1ᵀP2 orthogonality.
	n, d, k := 150, 12, 2
	data := lowRankData(2, n, d, k, 0.001)
	ctx := engine.NewContext(4)
	exact := (&LocalSVD{K: k}).Fit(ctx, fetchOf(data), nil).(*Projection)
	dist := (&DistSVD{K: k}).Fit(ctx, fetchOf(data), nil).(*Projection)
	// P_exactᵀ P_dist should be a k x k orthogonal matrix (rotation within
	// the same subspace): its singular values must all be ~1.
	cross := exact.P.TMul(dist.P)
	f := linalg.SVD(cross)
	for _, s := range f.S {
		if math.Abs(s-1) > 1e-6 {
			t.Errorf("subspaces differ: cross singular values %v", f.S)
		}
	}
}

func TestProjectionCentersData(t *testing.T) {
	// A dataset with large mean offset: projections of the mean point must
	// be ~0.
	rng := linalg.NewRNG(3)
	n, d := 100, 6
	items := make([]any, n)
	for i := 0; i < n; i++ {
		x := rng.GaussianVector(d)
		x[0] += 100 // big offset
		items[i] = x
	}
	data := engine.FromSlice(items, 2)
	ctx := engine.NewContext(2)
	proj := (&LocalSVD{K: 2}).Fit(ctx, fetchOf(data), nil).(*Projection)
	mean := make([]float64, d)
	for _, it := range items {
		linalg.AxpyInPlace(1.0/float64(n), it.([]float64), mean)
	}
	out := proj.Apply(mean).([]float64)
	if linalg.Norm2(out) > 1e-9 {
		t.Errorf("projection of the mean = %v, want ~0", out)
	}
}

func TestPCALogicalOptions(t *testing.T) {
	p := &PCA{K: 16}
	opts := p.Options()
	if len(opts) != 4 {
		t.Fatalf("options = %d, want 4 (Table 2)", len(opts))
	}
	var est core.EstimatorOp = p
	if _, ok := est.(core.Optimizable); !ok {
		t.Error("PCA must implement core.Optimizable")
	}
}

func TestPCACostSmallLocalFavored(t *testing.T) {
	// Table 2, n=10^4 d=256: local methods dominate distributed ones.
	res := cluster.R3_4XLarge(16)
	p := &PCA{K: 16, MemLimitBytes: 100e9}
	stats := cost.DataStats{N: 10_000, Dim: 256, K: 16, Sparsity: 1}
	opts := p.Options()
	idx := cost.Choose(opts, stats, res)
	name := opts[idx].Model.Name()
	if name != "pca.tsvd.local" && name != "pca.svd.local" {
		t.Errorf("small problem choice = %s, want a local variant", name)
	}
}

func TestPCACostLargeDistFavored(t *testing.T) {
	// Table 2, n=10^6 d=4096: local is infeasible, distributed TSVD wins
	// for small k.
	res := cluster.R3_4XLarge(16)
	p := &PCA{K: 16, MemLimitBytes: 8e9}
	stats := cost.DataStats{N: 1_000_000, Dim: 4096, K: 16, Sparsity: 1}
	opts := p.Options()
	idx := cost.Choose(opts, stats, res)
	name := opts[idx].Model.Name()
	if name != "pca.tsvd.dist" {
		t.Errorf("large problem choice = %s, want pca.tsvd.dist", name)
	}
}

func TestPCACostLargeKExactFavored(t *testing.T) {
	// Table 2 bottom-right: d=4096, k=1024 at n=10^6 — TSVD's k² terms
	// blow up (8310s vs 260s) so the exact distributed SVD must win.
	res := cluster.R3_4XLarge(16)
	p := &PCA{K: 1024, MemLimitBytes: 8e9}
	stats := cost.DataStats{N: 1_000_000, Dim: 4096, K: 1024, Sparsity: 1}
	opts := p.Options()
	idx := cost.Choose(opts, stats, res)
	if name := opts[idx].Model.Name(); name != "pca.svd.dist" {
		t.Errorf("large-k choice = %s, want pca.svd.dist", name)
	}
}

// TestProjectionBlockBits pins ApplyBlock to Apply column by column, bit
// for bit (signed zeros included), under both kernel backends, with ±0
// weights in P, a column equal to the training mean and a column sharing
// some of its features.
func TestProjectionBlockBits(t *testing.T) {
	rng := linalg.NewRNG(5)
	const d, k, n = 9, 4, 37
	proj := &Projection{P: rng.GaussianMatrix(d, k), Mean: rng.GaussianVector(d)}
	proj.P.Set(0, 1, 0)
	proj.P.Set(2, 0, math.Copysign(0, -1))
	proj.P.Set(5, 3, math.Copysign(0, -1))
	x := rng.GaussianMatrix(d, n)
	for i := 0; i < d; i++ {
		x.Set(i, 3, proj.Mean[i])
		if i%2 == 0 {
			x.Set(i, 8, proj.Mean[i])
		}
	}
	if _, err := proj.BlockRows(d + 1); err == nil {
		t.Error("BlockRows accepted the wrong width")
	}
	if err := proj.ApplyBlock(linalg.NewMatrix(k, n), linalg.NewMatrix(d-1, n)); err == nil {
		t.Error("ApplyBlock accepted the wrong width")
	}
	defer linalg.SetBackendMode(linalg.Mode())
	for _, mode := range []linalg.BackendMode{linalg.ModeReference, linalg.ModeBlocked} {
		linalg.SetBackendMode(mode)
		dst := linalg.NewMatrix(k, n)
		for i := range dst.Data {
			dst.Data[i] = math.NaN() // ApplyBlock must overwrite all of it
		}
		if err := proj.ApplyBlock(dst, x); err != nil {
			t.Fatal(err)
		}
		col := make([]float64, d)
		for j := 0; j < n; j++ {
			for i := range col {
				col[i] = x.At(i, j)
			}
			want := proj.Apply(col).([]float64)
			for i, w := range want {
				if got := dst.At(i, j); math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("mode %d column %d output %d: block %v, Apply %v", mode, j, i, got, w)
				}
			}
		}
	}
}

// TestProjectionBlockConcurrent runs ApplyBlock from several goroutines
// at once on blocks of different widths, so the pooled centring scratch
// changes shape between uses; every result must equal the serial one.
func TestProjectionBlockConcurrent(t *testing.T) {
	rng := linalg.NewRNG(6)
	proj := &Projection{P: rng.GaussianMatrix(16, 3), Mean: rng.GaussianVector(16)}
	blocks := []*linalg.Matrix{
		rng.GaussianMatrix(16, 1), rng.GaussianMatrix(16, 25),
		rng.GaussianMatrix(16, 7), rng.GaussianMatrix(16, 130),
	}
	apply := func(x *linalg.Matrix) *linalg.Matrix {
		dst := linalg.NewMatrix(3, x.Cols)
		if err := proj.ApplyBlock(dst, x); err != nil {
			panic(err)
		}
		return dst
	}
	want := make([]*linalg.Matrix, len(blocks))
	for i, x := range blocks {
		want[i] = apply(x)
	}
	errs := make(chan error, len(blocks))
	for i, x := range blocks {
		go func() {
			for round := 0; round < 50; round++ {
				if !linalg.Equal(apply(x), want[i], 0) {
					errs <- fmt.Errorf("block %d round %d differs from the serial result", i, round)
					return
				}
			}
			errs <- nil
		}()
	}
	for range blocks {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

func TestProjectionPanicsOnBadInput(t *testing.T) {
	proj := &Projection{P: linalg.NewMatrix(4, 2), Mean: make([]float64, 4)}
	for _, bad := range []any{"str", []float64{1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %T", bad)
				}
			}()
			proj.Apply(bad)
		}()
	}
}
