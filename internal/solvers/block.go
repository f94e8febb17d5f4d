package solvers

import (
	"sync"

	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
)

// BlockSolver partitions the d features into blocks of BlockSize columns
// and performs Gauss-Seidel sweeps: each block's weights are re-solved
// exactly against the current residual while the other blocks are held
// fixed. Per Table 1 the cost is O(i·n·d·(b+k)/w) compute and
// O(i·d·(b+k)) network — cheaper than an exact solve when b << d, which
// is why it wins on very wide dense problems (TIMIT beyond 8k features)
// but loses badly on sparse text data it must densify.
type BlockSolver struct {
	BlockSize int     // features per block; default 512
	Sweeps    int     // Gauss-Seidel passes over all blocks; default 3
	Lambda    float64 // ridge regularization; defaulted to a small value
}

// Name implements core.EstimatorOp.
func (s *BlockSolver) Name() string { return "solver.block" }

// Weight implements core.Iterative: the input is refetched once per sweep.
func (s *BlockSolver) Weight() int { return s.sweeps() }

func (s *BlockSolver) blockSize() int {
	if s.BlockSize > 0 {
		return s.BlockSize
	}
	return 512
}

func (s *BlockSolver) sweeps() int {
	if s.Sweeps > 0 {
		return s.Sweeps
	}
	return 3
}

func (s *BlockSolver) lambda() float64 {
	if s.Lambda > 0 {
		return s.Lambda
	}
	return 1e-6
}

// Fit implements core.EstimatorOp.
func (s *BlockSolver) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	lab := labels()
	// Exactly one fetch per sweep — Weight() fetches total, matching what
	// the cost model charges. Dimensions come from the first sweep's
	// fetch and the final training loss reuses the last one: an extra
	// fetch is a full upstream recompute locally and a full cluster
	// shuffle under keystone/dist, so none are spent on bookkeeping.
	var d, k, b int
	var w *linalg.Matrix
	var pairs []partPair

	for sweep := 0; sweep < s.sweeps(); sweep++ {
		// One fetch per sweep: the upstream pipeline recomputes here when
		// the solver input is not materialized.
		pairs = pairPartitions(pairs, data(), lab)
		if sweep == 0 {
			_, d, k = dims(pairs)
			b = s.blockSize()
			if b > d {
				b = d
			}
			w = linalg.NewMatrix(d, k)
		}
		dense := densify(pairs)
		// Residual R = B - A W, maintained incrementally across blocks.
		resid := make([]*linalg.Matrix, len(dense))
		var wg sync.WaitGroup
		sem := make(chan struct{}, ctx.Parallelism)
		for i := range dense {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				resid[i] = dense[i].labels.Clone().Sub(dense[i].feat.Mul(w))
			}(i)
		}
		wg.Wait()

		for lo := 0; lo < d; lo += b {
			hi := min(lo+b, d)
			bw := hi - lo
			// Aggregate block Gram G = A_Bᵀ A_B and C = A_Bᵀ (R + A_B W_B)
			// across partitions (one "shuffle" of d·(b+k) sized matrices).
			g := linalg.NewMatrix(bw, bw)
			c := linalg.NewMatrix(bw, k)
			wb := w.SliceRows(lo, hi)
			type partial struct{ g, c *linalg.Matrix }
			partials := make([]partial, len(dense))
			// Each partition's A_B column slice is needed again by the
			// residual update below; slice once per block, not twice.
			abs := make([]*linalg.Matrix, len(dense))
			for i := range dense {
				wg.Add(1)
				sem <- struct{}{}
				go func(i int) {
					defer wg.Done()
					defer func() { <-sem }()
					ab := dense[i].feat.SliceCols(lo, hi)
					abs[i] = ab
					target := resid[i].Clone().Add(ab.Mul(wb))
					partials[i] = partial{g: ab.TMul(ab), c: ab.TMul(target)}
				}(i)
			}
			wg.Wait()
			for _, p := range partials {
				g.Add(p.g)
				c.Add(p.c)
			}
			for i := 0; i < bw; i++ {
				g.Set(i, i, g.At(i, i)+s.lambda())
			}
			newWb := linalg.CholeskySolve(g, c)
			// Update residuals: R <- R - A_B (W_B' - W_B).
			delta := newWb.Clone().Sub(wb)
			for i := range dense {
				wg.Add(1)
				sem <- struct{}{}
				go func(i int) {
					defer wg.Done()
					defer func() { <-sem }()
					resid[i].Sub(abs[i].Mul(delta))
				}(i)
			}
			wg.Wait()
			// Write the block back into W.
			for i := lo; i < hi; i++ {
				copy(w.Row(i), newWb.Row(i-lo))
			}
		}
	}
	return &LinearMapper{W: w, TrainLoss: squaredLoss(pairs, w), SolverName: s.Name()}
}

type densePair struct {
	feat   *linalg.Matrix
	labels *linalg.Matrix
}

// densify converts paired partitions to dense matrices (the block solver
// has no sparse path — exactly the weakness Figure 6 exposes on text).
func densify(pairs []partPair) []densePair {
	out := make([]densePair, 0, len(pairs))
	for i := range pairs {
		p := &pairs[i]
		if p.rows() == 0 {
			continue
		}
		f := p.dense
		if f == nil {
			f = linalg.NewSparseMatrixFromRows(p.sparse).Dense()
		}
		out = append(out, densePair{feat: f, labels: p.labels})
	}
	return out
}
