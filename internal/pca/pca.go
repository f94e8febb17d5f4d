// Package pca implements the PCA Estimator with the four physical
// implementations compared in Table 2 of the KeystoneML paper: exact SVD
// and approximate truncated SVD, each in local (collect-to-driver) and
// distributed (per-partition Gram aggregation / distributed randomized
// range finding) forms, plus the cost models the optimizer uses to choose
// among them.
package pca

import (
	"fmt"
	"sync"

	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
)

// Projection is the fitted PCA transformer: projects d-vectors onto the
// top-k principal components (columns of P), after subtracting the
// training mean.
type Projection struct {
	P    *linalg.Matrix // d x k
	Mean []float64      // training column means
	Impl string
}

// Name implements core.TransformOp.
func (p *Projection) Name() string { return "model.pca[" + p.Impl + "]" }

// Apply projects one dense record.
func (p *Projection) Apply(in any) any {
	x, ok := in.([]float64)
	if !ok {
		panic(fmt.Sprintf("pca: cannot project %T", in))
	}
	d, k := p.P.Rows, p.P.Cols
	if len(x) != d {
		panic(fmt.Sprintf("pca: record has %d dims, projection expects %d", len(x), d))
	}
	out := make([]float64, k)
	for i, xi := range x {
		v := xi - p.Mean[i]
		if v == 0 {
			continue
		}
		linalg.AxpyInPlace(v, p.P.Row(i), out)
	}
	return out
}

// BlockRows implements core.BlockOp.
func (p *Projection) BlockRows(in int) (int, error) {
	if in != p.P.Rows {
		return 0, fmt.Errorf("pca: record has %d dims, projection expects %d", in, p.P.Rows)
	}
	return p.P.Cols, nil
}

// centred recycles ApplyBlock's centred copy of its input block.
var centred = sync.Pool{New: func() any { return new([]float64) }}

// ApplyBlock implements core.BlockOp: the block's columns centred into
// pooled scratch, then one Pᵀ·Xc TMul. Each output reduces over
// ascending input index from +0 with one rounded add per product, as
// Apply's axpy loop does; Apply skips a zero centred value and the
// reference TMul a zero weight, and skipping a zero product cannot
// change a bit (ARCHITECTURE.md Contract 5), so every column is Apply's
// output bit for bit.
func (p *Projection) ApplyBlock(dst, x *linalg.Matrix) error {
	k, err := p.BlockRows(x.Rows)
	if err != nil {
		return err
	}
	d, n := x.Rows, x.Cols
	buf := centred.Get().(*[]float64)
	defer centred.Put(buf)
	if cap(*buf) < d*n {
		*buf = make([]float64, d*n)
	}
	xc := (*buf)[:d*n]
	for i, mu := range p.Mean {
		row := xc[i*n : (i+1)*n]
		for j, v := range x.Data[i*n : (i+1)*n] {
			row[j] = v - mu
		}
	}
	clear(dst.Data)
	linalg.Choose(linalg.OpTMul, d, k, n).TMul(dst.Data, p.P.Data, xc, d, k, n)
	return nil
}

// collect gathers a dense collection into one matrix, reading each
// record in place.
func collect(c *engine.Collection) *linalg.Matrix {
	n := c.Count()
	if n == 0 {
		return linalg.NewMatrix(0, 0)
	}
	m := linalg.NewMatrix(n, len(firstRow(c)))
	r := 0
	for i := 0; i < c.NumPartitions(); i++ {
		for j := 0; j < c.Len(i); j++ {
			x := c.Row(i, j)
			if len(x) != m.Cols {
				panic(fmt.Sprintf("pca: record %d has %d dims, want %d", r, len(x), m.Cols))
			}
			copy(m.Row(r), x)
			r++
		}
	}
	return m
}

// firstRow returns the first record of a non-empty collection, skipping
// empty leading partitions.
func firstRow(c *engine.Collection) []float64 {
	for i := 0; i < c.NumPartitions(); i++ {
		if c.Len(i) > 0 {
			return c.Row(i, 0)
		}
	}
	panic("pca: empty input")
}

// LocalSVD computes an exact PCA by collecting the data to the driver and
// taking a full SVD of the centered matrix: O(nd²) compute, exact answer.
type LocalSVD struct {
	K int
}

// Name implements core.EstimatorOp.
func (s *LocalSVD) Name() string { return "pca.svd.local" }

// Fit implements core.EstimatorOp.
func (s *LocalSVD) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	a := collect(data())
	mean := a.CenterColumns()
	f := linalg.SVD(a).Truncate(s.K)
	return &Projection{P: f.V, Mean: mean, Impl: s.Name()}
}

// LocalTSVD computes an approximate PCA on the driver via randomized
// truncated SVD: O(ndk) compute — the Table 2 winner for small k on
// datasets that fit on one machine.
type LocalTSVD struct {
	K     int
	Iters int // power iterations; default 2
	Seed  uint64
}

// Name implements core.EstimatorOp.
func (s *LocalTSVD) Name() string { return "pca.tsvd.local" }

func (s *LocalTSVD) iters() int {
	if s.Iters > 0 {
		return s.Iters
	}
	return 2
}

// Fit implements core.EstimatorOp.
func (s *LocalTSVD) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	a := collect(data())
	mean := a.CenterColumns()
	f := linalg.TruncatedSVD(a, s.K, s.iters(), linalg.NewRNG(s.Seed+777))
	return &Projection{P: f.V, Mean: mean, Impl: s.Name()}
}

// DistSVD computes an exact distributed PCA: per-partition covariance
// contributions are tree-aggregated (network O(d²)) and the d x d
// covariance is eigendecomposed on the driver (compute O(nd²/w + d³)).
type DistSVD struct {
	K int
}

// Name implements core.EstimatorOp.
func (s *DistSVD) Name() string { return "pca.svd.dist" }

// Fit implements core.EstimatorOp.
func (s *DistSVD) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	c := data()
	n := c.Count()
	if n == 0 {
		panic("pca: empty input")
	}
	d := len(firstRow(c))
	type partial struct {
		gram *linalg.Matrix
		sum  []float64
	}
	partials := make([]partial, c.NumPartitions())
	ctx.EachPartition(c, func(i int) {
		g := linalg.NewMatrix(d, d)
		sum := make([]float64, d)
		for j := 0; j < c.Len(i); j++ {
			x := c.Row(i, j)
			linalg.AxpyInPlace(1, x, sum)
			for r, xr := range x {
				if xr == 0 {
					continue
				}
				linalg.AxpyInPlace(xr, x, g.Row(r))
			}
		}
		partials[i] = partial{gram: g, sum: sum}
	})
	gram := linalg.NewMatrix(d, d)
	sum := make([]float64, d)
	for _, p := range partials {
		gram.Add(p.gram)
		linalg.AxpyInPlace(1, p.sum, sum)
	}
	mean := make([]float64, d)
	for i := range sum {
		mean[i] = sum[i] / float64(n)
	}
	// Covariance = (XᵀX - n μμᵀ) / n.
	for i := 0; i < d; i++ {
		row := gram.Row(i)
		for j := 0; j < d; j++ {
			row[j] = row[j]/float64(n) - mean[i]*mean[j]
		}
	}
	_, v := linalg.SymEig(gram)
	return &Projection{P: v.SliceCols(0, min(s.K, d)), Mean: mean, Impl: s.Name()}
}

// DistTSVD computes an approximate distributed PCA: randomized range
// finding where each A·Ω product is an aggregate over partitions
// (compute O(ndk/w), network O(dk) per power iteration).
type DistTSVD struct {
	K     int
	Iters int
	Seed  uint64
}

// Name implements core.EstimatorOp.
func (s *DistTSVD) Name() string { return "pca.tsvd.dist" }

func (s *DistTSVD) iters() int {
	if s.Iters > 0 {
		return s.Iters
	}
	return 2
}

// Fit implements core.EstimatorOp.
func (s *DistTSVD) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	c := data()
	n := c.Count()
	if n == 0 {
		panic("pca: empty input")
	}
	d := len(firstRow(c))
	k := min(s.K, d)
	p := min(k+8, d)
	mean := colMeans(ctx, c, d, n)

	rng := linalg.NewRNG(s.Seed + 12345)
	omega := rng.GaussianMatrix(d, p)
	// y = (A - 1μᵀ) Ω computed distributively; QR on the driver (y is n x p,
	// with p small). y is the fit's one n x p buffer: each product is
	// written into it and factored in place, leaving its Q there, and one
	// Householder scratch serves every factorization.
	offsets := rowOffsets(c)
	y := linalg.NewMatrix(n, p)
	mulCentered(ctx, c, offsets, omega, mean, y)
	vs := linalg.QRInPlace(y, y, nil)
	for it := 0; it < s.iters(); it++ {
		z := tMulCentered(ctx, c, offsets, y, mean) // d x p
		vs = linalg.QRInPlace(z, z, vs)
		mulCentered(ctx, c, offsets, z, mean, y)
		vs = linalg.QRInPlace(y, y, vs)
	}
	b := tMulCentered(ctx, c, offsets, y, mean).T() // p x d
	fb := linalg.SVD(b)
	return &Projection{P: fb.V.SliceCols(0, k), Mean: mean, Impl: s.Name()}
}

// colMeans returns the column means of c: per-partition sums combined
// as Aggregate combines, reading each record in place.
func colMeans(ctx *engine.Context, c *engine.Collection, d, n int) []float64 {
	partials := make([][]float64, c.NumPartitions())
	ctx.EachPartition(c, func(i int) {
		sum := make([]float64, d)
		for j := 0; j < c.Len(i); j++ {
			linalg.AxpyInPlace(1, c.Row(i, j), sum)
		}
		partials[i] = sum
	})
	sum := engine.TreeCombine(partials, func(a, b []float64) []float64 {
		linalg.AxpyInPlace(1, b, a)
		return a
	})
	for i := range sum {
		sum[i] /= float64(n)
	}
	return sum
}

// rowOffsets returns the global index of each partition's first record.
func rowOffsets(c *engine.Collection) []int {
	offsets := make([]int, c.NumPartitions())
	off := 0
	for i := range offsets {
		offsets[i] = off
		off += c.Len(i)
	}
	return offsets
}

// mulCentered computes (A - 1μᵀ)·M distributively into the n x p matrix
// y: each record's row is written straight into y at its partition's row
// offset.
func mulCentered(ctx *engine.Context, c *engine.Collection, offsets []int, m *linalg.Matrix, mean []float64, y *linalg.Matrix) {
	be := linalg.Choose(linalg.OpAxpy, m.Cols, 1, 1) // once, not per row of m
	ctx.EachPartition(c, func(i int) {
		for r := 0; r < c.Len(i); r++ {
			x := c.Row(i, r)
			out := y.Row(offsets[i] + r)
			clear(out)
			for ii, xi := range x {
				v := xi - mean[ii]
				if v == 0 {
					continue
				}
				be.Axpy(v, m.Row(ii), out)
			}
		}
	})
}

// tMulCentered computes (A - 1μᵀ)ᵀ·Q via per-partition partials summed
// in partition order, returning d x p. Rows of Q align with record order,
// so each partition reads Q from its global row offset.
func tMulCentered(ctx *engine.Context, c *engine.Collection, offsets []int, q *linalg.Matrix, mean []float64) *linalg.Matrix {
	d := len(mean)
	p := q.Cols
	be := linalg.Choose(linalg.OpAxpy, p, 1, 1) // once, not per row of acc
	// Each record contributes (x-μ) ⊗ q_row.
	partials := make([]*linalg.Matrix, c.NumPartitions())
	ctx.EachPartition(c, func(i int) {
		acc := linalg.NewMatrix(d, p)
		for r := 0; r < c.Len(i); r++ {
			x := c.Row(i, r)
			qRow := q.Row(offsets[i] + r)
			for ii, xi := range x {
				v := xi - mean[ii]
				if v == 0 {
					continue
				}
				be.Axpy(v, qRow, acc.Row(ii))
			}
		}
		partials[i] = acc
	})
	out := linalg.NewMatrix(d, p)
	for _, m := range partials {
		out.Add(m)
	}
	return out
}
