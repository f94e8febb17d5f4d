// Package solvers implements the KeystoneML linear solver family from
// Table 1 of the paper — local exact QR, communication-avoiding
// distributed QR (TSQR), block coordinate descent (Gauss-Seidel), L-BFGS
// (dense and sparse), and minibatch SGD — together with the per-solver
// cost models the operator-level optimizer chooses between. All solvers
// minimize ||AX - B||_F (plus an optional ridge term) for features A
// (n x d) and label matrix B (n x k), and produce a LinearMapper
// transformer.
package solvers

import (
	"fmt"

	"keystoneml/internal/linalg"
)

// LinearMapper is the fitted model produced by every linear solver: a
// d x k weight matrix applied to dense or sparse feature records,
// yielding k per-class scores.
type LinearMapper struct {
	// W is the weight matrix, stored d x k row-major so that the
	// per-feature rows stream well for sparse inputs.
	W *linalg.Matrix
	// TrainLoss is the final squared-loss objective on the training data,
	// recorded for the convergence comparisons in Figure 8.
	TrainLoss float64
	// SolverName records which physical solver produced the model.
	SolverName string
}

// Name implements core.TransformOp.
func (m *LinearMapper) Name() string { return "model.linear[" + m.SolverName + "]" }

// Apply scores one record: a []float64 or *linalg.SparseVector of
// dimension d yields a []float64 of k scores.
func (m *LinearMapper) Apply(in any) any {
	switch x := in.(type) {
	case []float64:
		return m.scoreDense(x)
	case *linalg.SparseVector:
		return m.scoreSparse(x)
	default:
		panic(fmt.Sprintf("solvers: LinearMapper cannot score %T", in))
	}
}

func (m *LinearMapper) scoreDense(x []float64) []float64 {
	d, k := m.W.Rows, m.W.Cols
	if len(x) != d {
		panic(fmt.Sprintf("solvers: record has %d features, model expects %d", len(x), d))
	}
	out := make([]float64, k)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.W.Row(i)
		for j, w := range row {
			out[j] += xi * w
		}
	}
	return out
}

// BlockRows implements core.BlockOp.
func (m *LinearMapper) BlockRows(in int) (int, error) {
	if in != m.W.Rows {
		return 0, fmt.Errorf("solvers: record has %d features, model expects %d", in, m.W.Rows)
	}
	return m.W.Cols, nil
}

// ApplyBlock implements core.BlockOp for dense records: the block's
// scores as one Wᵀ·X, oriented like the solver pass's scoresT so the
// kernel's inner loop runs over the block's records, not the k classes.
// Each score reduces over ascending feature index from +0 with one
// rounded add per product, as scoreDense does; skipping a zero product
// (scoreDense skips zero features, the reference TMul zero weights)
// cannot change a bit, so each column is Apply's output bit for bit.
func (m *LinearMapper) ApplyBlock(dst, x *linalg.Matrix) error {
	k, err := m.BlockRows(x.Rows)
	if err != nil {
		return err
	}
	clear(dst.Data)
	linalg.Choose(linalg.OpTMul, x.Rows, k, x.Cols).TMul(dst.Data, m.W.Data, x.Data, x.Rows, k, x.Cols)
	return nil
}

func (m *LinearMapper) scoreSparse(x *linalg.SparseVector) []float64 {
	d, k := m.W.Rows, m.W.Cols
	if x.Dim != d {
		panic(fmt.Sprintf("solvers: record has %d features, model expects %d", x.Dim, d))
	}
	out := make([]float64, k)
	for p, i := range x.Idx {
		xi := x.Val[p]
		row := m.W.Row(i)
		for j, w := range row {
			out[j] += xi * w
		}
	}
	return out
}
