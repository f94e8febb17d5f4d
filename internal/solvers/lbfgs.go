package solvers

import (
	"math"
	"sync"

	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
)

// Loss selects the objective the gradient solvers minimize.
type Loss int

const (
	// SquareLoss is 1/2n ||AX - B||_F^2 — the objective all Table 1
	// solvers share.
	SquareLoss Loss = iota
	// LogisticLoss is the multinomial logistic objective over one-hot
	// labels; used by the text-classification pipeline's
	// LogisticRegression operator.
	LogisticLoss
)

// String implements fmt.Stringer.
func (l Loss) String() string {
	if l == LogisticLoss {
		return "logistic"
	}
	return "square"
}

// LBFGS is the limited-memory BFGS gradient solver. Each iteration makes
// one pass over the (possibly recomputed) input — this is the iterative
// access pattern the materialization optimizer exists for, so Fit fetches
// its input once per iteration rather than holding the first
// materialization. Sparse inputs compute gradients in O(nnz·k) per pass,
// the property that makes L-BFGS dominate on text workloads (Figure 6).
type LBFGS struct {
	Iterations int     // number of passes; default 50
	History    int     // L-BFGS memory; default 10
	Lambda     float64 // ridge regularization
	Objective  Loss
}

// Name implements core.EstimatorOp.
func (s *LBFGS) Name() string {
	if s.Objective == LogisticLoss {
		return "solver.logistic.lbfgs"
	}
	return "solver.lbfgs"
}

// Weight implements core.Iterative: one pass over the input per iteration.
func (s *LBFGS) Weight() int { return s.iters() }

func (s *LBFGS) iters() int {
	if s.Iterations > 0 {
		return s.Iterations
	}
	return 50
}

func (s *LBFGS) history() int {
	if s.History > 0 {
		return s.History
	}
	return 10
}

// Fit implements core.EstimatorOp.
func (s *LBFGS) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	lab := labels() // labels are small; hold them across passes
	// One fetch per iteration and no extras: dimensions come from the
	// first pass and the final loss reuses the last pass (a fetch is a
	// cluster shuffle under keystone/dist), so the fetch count is exactly
	// the Weight() the cost model charges.
	var d, k, dim int
	var w []float64
	var pairs []partPair
	var sc passScratch // dropped with pairs when Fit returns
	var sHist, yHist [][]float64
	var prevW, prevG []float64

	for it := 0; it < s.iters(); it++ {
		pairs = pairPartitions(pairs, data(), lab) // one pass: refetch input
		if it == 0 {
			_, d, k = dims(pairs)
			dim = d * k
			w = make([]float64, dim)
		}
		g := s.gradient(ctx, pairs, &sc, w, d, k)
		gnorm := linalg.Norm2(g)
		if gnorm < 1e-10 {
			break
		}
		if prevW != nil {
			sv := make([]float64, dim)
			yv := make([]float64, dim)
			for i := range sv {
				sv[i] = w[i] - prevW[i]
				yv[i] = g[i] - prevG[i]
			}
			if linalg.Dot(sv, yv) > 1e-12 {
				sHist = append(sHist, sv)
				yHist = append(yHist, yv)
				if len(sHist) > s.history() {
					sHist = sHist[1:]
					yHist = yHist[1:]
				}
			}
		}
		dir := twoLoop(g, sHist, yHist)
		step := 1.0
		if len(sHist) == 0 {
			// First iteration: scale so the initial step is modest.
			step = 1.0 / (1.0 + gnorm)
		}
		prevW = linalg.CloneVec(w)
		prevG = g
		// w -= step*dir; (-step)*d is the exact negation of step*d, so
		// this matches the elementwise subtraction bit for bit.
		linalg.AxpyInPlace(-step, dir, w)
	}
	wm := &linalg.Matrix{Rows: d, Cols: k, Data: w}
	return &LinearMapper{W: wm, TrainLoss: squaredLoss(pairs, wm), SolverName: s.Name()}
}

// twoLoop is the standard L-BFGS two-loop recursion producing the search
// direction H·g, with the Nocedal γ = sᵀy/yᵀy initial Hessian scaling.
func twoLoop(g []float64, sHist, yHist [][]float64) []float64 {
	q := linalg.CloneVec(g)
	m := len(sHist)
	alpha := make([]float64, m)
	rho := make([]float64, m)
	for i := m - 1; i >= 0; i-- {
		rho[i] = 1.0 / linalg.Dot(yHist[i], sHist[i])
		alpha[i] = rho[i] * linalg.Dot(sHist[i], q)
		linalg.AxpyInPlace(-alpha[i], yHist[i], q)
	}
	if m > 0 {
		gamma := linalg.Dot(sHist[m-1], yHist[m-1]) / linalg.Dot(yHist[m-1], yHist[m-1])
		linalg.ScaleInPlace(gamma, q)
	}
	for i := 0; i < m; i++ {
		beta := rho[i] * linalg.Dot(yHist[i], q)
		linalg.AxpyInPlace(alpha[i]-beta, sHist[i], q)
	}
	return q
}

// passScratch is the working memory the gradient passes of one Fit share,
// sized on first use: Wᵀ and, per partition, the partition's gradient g
// (d x k) plus, for dense partitions, the transposed scores-then-residuals
// Pᵀ (k x rows) and transposed gradient Gᵀ (k x d).
type passScratch struct {
	wt    []float64
	parts []partScratch
}

type partScratch struct{ g, pt, gt []float64 }

// gradient computes the full-batch gradient (flattened d x k) in parallel
// across partitions, then tree-combines — the treeAggregate pattern whose
// network cost is the O(i·d·k) term in Table 1. A dense partition's pass
// is three matrix ops through the kernel backends: Pᵀ = Wᵀ·Xᵀ, the
// residual Rᵀ in place of Pᵀ, and Gᵀ = Rᵀ·X. Both products reduce in
// ascending index order with one rounded add per product, exactly like a
// record-at-a-time loop, so the result does not depend on the backend.
func (s *LBFGS) gradient(ctx *engine.Context, pairs []partPair, sc *passScratch, w []float64, d, k int) []float64 {
	if len(sc.parts) != len(pairs) {
		sc.parts = make([]partScratch, len(pairs))
	}
	sc.wt = grow(sc.wt, d*k)
	transposeInto(sc.wt, w, d, k)
	var wg sync.WaitGroup
	sem := make(chan struct{}, ctx.Parallelism)
	for pi := range pairs {
		wg.Add(1)
		sem <- struct{}{}
		go func(pi int) {
			defer wg.Done()
			defer func() { <-sem }()
			p, ps := &pairs[pi], &sc.parts[pi]
			rows := p.rows()
			ps.g = grow(ps.g, d*k)
			pred := make([]float64, k)
			if p.dense == nil {
				clear(ps.g)
				wm := linalg.Matrix{Rows: d, Cols: k, Data: w}
				for r, sv := range p.sparse {
					scoreRow(p, r, &wm, pred)
					s.Objective.residual(pred, p.labels.Row(r))
					// g += x ⊗ residual
					for pos, i := range sv.Idx {
						xi, gi := sv.Val[pos], ps.g[i*k:i*k+k]
						for j, rj := range pred {
							gi[j] += xi * rj
						}
					}
				}
				return
			}
			ps.pt, ps.gt = grow(ps.pt, k*rows), grow(ps.gt, k*d)
			p.scoresT(ps.pt, sc.wt, k)
			for r := 0; r < rows; r++ {
				for j := range pred {
					pred[j] = ps.pt[j*rows+r]
				}
				s.Objective.residual(pred, p.labels.Row(r))
				for j, rj := range pred {
					ps.pt[j*rows+r] = rj
				}
			}
			clear(ps.gt)
			linalg.Choose(linalg.OpGemm, k, rows, d).Mul(ps.gt, ps.pt, p.dense.Data, k, rows, d)
			transposeInto(ps.g, ps.gt, k, d)
		}(pi)
	}
	wg.Wait()
	total := make([]float64, d*k)
	n := 0
	for pi := range pairs {
		linalg.AxpyInPlace(1, sc.parts[pi].g, total)
		n += pairs[pi].rows()
	}
	inv := 1.0 / float64(max(n, 1))
	for i := range total {
		total[i] = total[i]*inv + s.Lambda*w[i]
	}
	return total
}

// transposeInto writes the transpose of the rows x cols row-major src into
// dst (cols x rows).
func transposeInto(dst, src []float64, rows, cols int) {
	for i := 0; i < rows; i++ {
		for j, v := range src[i*cols : (i+1)*cols] {
			dst[j*rows+i] = v
		}
	}
}

// residual turns one record's raw scores into the loss residual in place:
// scores − y for the square loss, softmax(scores) − y for the logistic.
func (l Loss) residual(scores, y []float64) {
	if l == LogisticLoss {
		softmaxResidual(scores, y)
		return
	}
	for j := range scores {
		scores[j] -= y[j]
	}
}

// softmaxResidual converts raw scores to softmax probabilities minus the
// one-hot label in place.
func softmaxResidual(scores, y []float64) {
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
	for j := range scores {
		scores[j] = scores[j]/z - y[j]
	}
}
