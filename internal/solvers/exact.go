package solvers

import (
	"math"
	"sync"

	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
)

// LocalQR is the exact solver run on a single node: all featurized data is
// collected to the driver (network cost O(n(d+k))) and solved with a thin
// Householder QR (compute O(nd(d+k))). It returns solutions to extremely
// high precision but becomes infeasible once n x d no longer fits in
// driver memory — the failure mode Figure 6 shows for the Amazon pipeline
// beyond 4k features.
type LocalQR struct {
	// Lambda is an optional ridge term; zero solves plain least squares.
	Lambda float64
}

// Name implements core.EstimatorOp.
func (s *LocalQR) Name() string { return "solver.exact.local-qr" }

// Fit implements core.EstimatorOp.
func (s *LocalQR) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	pairs := pairPartitions(nil, data(), labels())
	n, d, k := dims(pairs)
	_ = k
	// Densify and stack everything on the "driver".
	mats := make([]*linalg.Matrix, 0, len(pairs))
	labs := make([]*linalg.Matrix, 0, len(pairs))
	for i := range pairs {
		p := &pairs[i]
		if p.rows() == 0 {
			continue
		}
		if p.dense != nil {
			mats = append(mats, p.dense)
		} else {
			mats = append(mats, linalg.NewSparseMatrixFromRows(p.sparse).Dense())
		}
		labs = append(labs, p.labels)
	}
	a := linalg.VStack(mats...)
	b := linalg.VStack(labs...)
	var w *linalg.Matrix
	if s.Lambda > 0 {
		// Ridge via augmented system [A; sqrt(λ)I] X = [B; 0].
		aug := linalg.VStack(a, linalg.Identity(d).Scale(math.Sqrt(s.Lambda)))
		baug := linalg.VStack(b, linalg.NewMatrix(d, b.Cols))
		w = linalg.LeastSquaresQR(aug, baug)
	} else if n >= d {
		w = linalg.LeastSquaresQR(a, b)
	} else {
		// Underdetermined: fall back to regularized normal equations.
		g := a.TMul(a)
		for i := 0; i < d; i++ {
			g.Set(i, i, g.At(i, i)+1e-8)
		}
		w = linalg.CholeskySolve(g, a.TMul(b))
	}
	return &LinearMapper{W: w, TrainLoss: squaredLoss(pairs, w), SolverName: s.Name()}
}

// DistributedQR is the communication-avoiding exact solver: each partition
// is reduced to a small R factor via local QR and the factors are combined
// in a tree (TSQR, Demmel et al.), giving per-node compute O(nd(d+k)/w)
// and network traffic O(d(d+k)) independent of n. When partitions are too
// short for TSQR (fewer than d rows) it falls back to distributed normal
// equations with the same communication pattern.
type DistributedQR struct {
	Lambda float64
}

// Name implements core.EstimatorOp.
func (s *DistributedQR) Name() string { return "solver.exact.dist-qr" }

// Fit implements core.EstimatorOp.
func (s *DistributedQR) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	pairs := pairPartitions(nil, data(), labels())
	n, d, k := dims(pairs)
	_ = n
	tall := true
	for i := range pairs {
		if pairs[i].rows() > 0 && pairs[i].rows() < d {
			tall = false
			break
		}
	}
	var w *linalg.Matrix
	if tall && s.Lambda == 0 {
		w = s.tsqr(ctx, pairs, d, k)
	} else {
		w = s.normalEquations(ctx, pairs, d, k)
	}
	return &LinearMapper{W: w, TrainLoss: squaredLoss(pairs, w), SolverName: s.Name()}
}

// tsqr runs local QR per partition in parallel, then tree-combines the
// (R, QᵀB) pairs until one remains. The tree pairs factors in partition
// order, so the fitted W does not depend on which QR finished first.
func (s *DistributedQR) tsqr(ctx *engine.Context, pairs []partPair, d, k int) *linalg.Matrix {
	type factor struct {
		r *linalg.Matrix // d x d
		c *linalg.Matrix // d x k (Qᵀ B)
	}
	byPart := make([]factor, len(pairs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, ctx.Parallelism)
	for i := range pairs {
		if pairs[i].rows() == 0 {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			p := &pairs[i]
			a := p.dense
			if a == nil {
				a = linalg.NewSparseMatrixFromRows(p.sparse).Dense()
			}
			f := linalg.QR(a)
			byPart[i] = factor{r: f.R, c: f.Q.TMul(p.labels)}
		}(i)
	}
	wg.Wait()
	factors := byPart[:0]
	for _, f := range byPart {
		if f.r != nil { // empty partitions contribute nothing
			factors = append(factors, f)
		}
	}
	// Tree reduction: QR of stacked [R1; R2].
	for len(factors) > 1 {
		next := make([]factor, 0, (len(factors)+1)/2)
		for i := 0; i < len(factors); i += 2 {
			if i+1 == len(factors) {
				next = append(next, factors[i])
				continue
			}
			stackedR := linalg.VStack(factors[i].r, factors[i+1].r)
			stackedC := linalg.VStack(factors[i].c, factors[i+1].c)
			f := linalg.QR(stackedR)
			next = append(next, factor{r: f.R, c: f.Q.TMul(stackedC)})
		}
		factors = next
	}
	if len(factors) == 0 {
		return linalg.NewMatrix(d, k)
	}
	return linalg.SolveUpperTriangularMatrix(factors[0].r, factors[0].c)
}

// normalEquations aggregates G = AᵀA and C = AᵀB across partitions (in
// parallel) and solves (G + λI) W = C with Cholesky on the driver.
func (s *DistributedQR) normalEquations(ctx *engine.Context, pairs []partPair, d, k int) *linalg.Matrix {
	grams := make([]*linalg.Matrix, len(pairs))
	cross := make([]*linalg.Matrix, len(pairs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, ctx.Parallelism)
	for i := range pairs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			p := &pairs[i]
			if p.rows() == 0 {
				grams[i] = linalg.NewMatrix(d, d)
				cross[i] = linalg.NewMatrix(d, k)
				return
			}
			if p.dense != nil {
				grams[i] = p.dense.TMul(p.dense)
				cross[i] = p.dense.TMul(p.labels)
				return
			}
			g := linalg.NewMatrix(d, d)
			c := linalg.NewMatrix(d, k)
			for r, sv := range p.sparse {
				y := p.labels.Row(r)
				for pi, ii := range sv.Idx {
					vi := sv.Val[pi]
					gRow := g.Row(ii)
					for pj, jj := range sv.Idx {
						gRow[jj] += vi * sv.Val[pj]
					}
					cRow := c.Row(ii)
					for j := 0; j < k; j++ {
						cRow[j] += vi * y[j]
					}
				}
			}
			grams[i] = g
			cross[i] = c
		}(i)
	}
	wg.Wait()
	g := linalg.NewMatrix(d, d)
	c := linalg.NewMatrix(d, k)
	for i := range pairs {
		g.Add(grams[i])
		c.Add(cross[i])
	}
	lam := s.Lambda
	if lam <= 0 {
		lam = 1e-8 // minimal regularization for numerical safety
	}
	for i := 0; i < d; i++ {
		g.Set(i, i, g.At(i, i)+lam)
	}
	return linalg.CholeskySolve(g, c)
}
