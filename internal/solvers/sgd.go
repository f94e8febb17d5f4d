package solvers

import (
	"math"

	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/linalg"
)

// SGD is a minibatch stochastic gradient descent solver. KeystoneML's
// optimizer never picks it for the Table 1 problems (full-batch methods
// dominate at this scale), but it is the fixed strategy the Vowpal
// Wabbit and TensorFlow comparator systems use, so it lives here as a
// first-class physical operator.
type SGD struct {
	Epochs    int     // passes over the data; default 10
	BatchSize int     // records per update; default 128
	StepSize  float64 // initial learning rate; default 0.1 with 1/sqrt(t) decay
	Lambda    float64
	Objective Loss
	// Normalized scales each record's gradient contribution by
	// 1/(1+||x||²) (normalized least-mean-squares), the style of update
	// Vowpal Wabbit uses to stay stable on unscaled dense features.
	Normalized bool
}

// Name implements core.EstimatorOp.
func (s *SGD) Name() string { return "solver.sgd" }

// Weight implements core.Iterative.
func (s *SGD) Weight() int { return s.epochs() }

func (s *SGD) epochs() int {
	if s.Epochs > 0 {
		return s.Epochs
	}
	return 10
}

func (s *SGD) batch() int {
	if s.BatchSize > 0 {
		return s.BatchSize
	}
	return 128
}

func (s *SGD) step(t int) float64 {
	base := s.StepSize
	if base <= 0 {
		base = 0.1
	}
	return base / math.Sqrt(1+float64(t)/100)
}

// Fit implements core.EstimatorOp.
func (s *SGD) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	lab := labels()
	// One fetch per epoch, none for bookkeeping: dimensions come from
	// the first epoch's fetch and the final loss reuses the last one
	// (each fetch is a full upstream recompute locally and a cluster
	// shuffle under keystone/dist), so the fetch count equals Weight().
	var d, k int
	var w []float64
	var wm linalg.Matrix
	var pairs []partPair
	t := 0
	for epoch := 0; epoch < s.epochs(); epoch++ {
		pairs = pairPartitions(pairs, data(), lab)
		if epoch == 0 {
			_, d, k = dims(pairs)
			w = make([]float64, d*k)
			wm = linalg.Matrix{Rows: d, Cols: k, Data: w}
		}
		pred := make([]float64, k)
		gBatch := make([]float64, d*k)
		inBatch := 0
		flush := func() {
			if inBatch == 0 {
				return
			}
			lr := s.step(t) / float64(inBatch)
			for i, g := range gBatch {
				w[i] -= lr * (g + s.Lambda*w[i]*float64(inBatch))
				gBatch[i] = 0
			}
			inBatch = 0
			t++
		}
		for pi := range pairs {
			p := &pairs[pi]
			rows := p.rows()
			for r := 0; r < rows; r++ {
				scoreRow(p, r, &wm, pred)
				s.Objective.residual(pred, p.labels.Row(r))
				if s.Normalized {
					norm2 := rowNorm2(p, r)
					scale := 1 / (1 + norm2)
					for j := 0; j < k; j++ {
						pred[j] *= scale
					}
				}
				if p.dense != nil {
					x := p.dense.Row(r)
					for i, xi := range x {
						if xi == 0 {
							continue
						}
						base := i * k
						for j := 0; j < k; j++ {
							gBatch[base+j] += xi * pred[j]
						}
					}
				} else {
					sv := p.sparse[r]
					for pos, i := range sv.Idx {
						xi := sv.Val[pos]
						base := i * k
						for j := 0; j < k; j++ {
							gBatch[base+j] += xi * pred[j]
						}
					}
				}
				inBatch++
				if inBatch >= s.batch() {
					flush()
				}
			}
		}
		flush()
	}
	model := &linalg.Matrix{Rows: d, Cols: k, Data: w}
	return &LinearMapper{W: model, TrainLoss: squaredLoss(pairs, model), SolverName: s.Name()}
}

// rowNorm2 returns ||x||² of record r in partition p.
func rowNorm2(p *partPair, r int) float64 {
	var s float64
	if p.dense != nil {
		for _, v := range p.dense.Row(r) {
			s += v * v
		}
		return s
	}
	for _, v := range p.sparse[r].Val {
		s += v * v
	}
	return s
}
