// Package speech implements the kernel-approximation featurizers of the
// paper's TIMIT pipeline: random Fourier (cosine) features in the style of
// Rahimi & Recht, which turn a kernel SVM into a linear solve over an
// explicit randomized feature map.
package speech

import (
	"fmt"
	"math"

	"keystoneml/internal/linalg"
)

// RandomFeatures is a TransformOp mapping a d-dimensional input vector to
// D random cosine features approximating an RBF kernel of bandwidth
// Gamma: z_i(x) = sqrt(2/D) * cos(w_i·x + b_i) with w ~ N(0, 2γ I),
// b ~ U[0, 2π).
type RandomFeatures struct {
	W     *linalg.Matrix // D x d projection
	B     []float64      // D phases
	scale float64
}

// NewRandomFeatures draws a deterministic random feature map.
func NewRandomFeatures(inputDim, numFeatures int, gamma float64, seed uint64) *RandomFeatures {
	if inputDim <= 0 || numFeatures <= 0 {
		panic(fmt.Sprintf("speech: invalid random feature dims %d -> %d", inputDim, numFeatures))
	}
	rng := linalg.NewRNG(seed + 991)
	w := rng.GaussianMatrix(numFeatures, inputDim)
	sd := math.Sqrt(2 * gamma)
	for i := range w.Data {
		w.Data[i] *= sd
	}
	b := make([]float64, numFeatures)
	for i := range b {
		b[i] = 2 * math.Pi * rng.Float64()
	}
	return &RandomFeatures{W: w, B: b, scale: math.Sqrt(2 / float64(numFeatures))}
}

// Name implements core.TransformOp.
func (r *RandomFeatures) Name() string { return "speech.randomfeatures" }

// Apply implements core.TransformOp.
func (r *RandomFeatures) Apply(in any) any {
	x, ok := in.([]float64)
	if !ok {
		panic(fmt.Sprintf("speech: expected []float64, got %T", in))
	}
	if len(x) != r.W.Cols {
		panic(fmt.Sprintf("speech: input dim %d, map expects %d", len(x), r.W.Cols))
	}
	// One Gemv over W: each projection is the same ascending accumulator
	// chain as a per-row Dot, with one backend dispatch per record.
	out := r.W.MulVec(x)
	for i, v := range out {
		out[i] = r.scale * math.Cos(v+r.B[i])
	}
	return out
}

// BlockRows implements core.BlockOp.
func (r *RandomFeatures) BlockRows(in int) (int, error) {
	if in != r.W.Cols {
		return 0, fmt.Errorf("speech: input dim %d, map expects %d", in, r.W.Cols)
	}
	return r.W.Rows, nil
}

// ApplyBlock implements core.BlockOp: one GEMM W·X over the block's
// columns, then Apply's cosine element by element. Every projection
// reduces over ascending input index with one rounded add per product,
// as Apply's Gemv does, so each column is Apply's output bit for bit.
func (r *RandomFeatures) ApplyBlock(dst, x *linalg.Matrix) error {
	rows, err := r.BlockRows(x.Rows)
	if err != nil {
		return err
	}
	n := x.Cols
	clear(dst.Data)
	linalg.Choose(linalg.OpGemm, rows, x.Rows, n).Mul(dst.Data, r.W.Data, x.Data, rows, x.Rows, n)
	for i, b := range r.B {
		row := dst.Data[i*n : (i+1)*n]
		for j, v := range row {
			row[j] = r.scale * math.Cos(v+b)
		}
	}
	return nil
}

// Kernel returns the RBF kernel value exp(-γ||x-y||²) that the random
// feature map approximates; exported for the approximation-quality tests.
func Kernel(x, y []float64, gamma float64) float64 {
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return math.Exp(-gamma * s)
}

// ApproxKernel returns the random-feature inner product z(x)·z(y).
func (r *RandomFeatures) ApproxKernel(x, y []float64) float64 {
	zx := r.Apply(x).([]float64)
	zy := r.Apply(y).([]float64)
	return linalg.Dot(zx, zy)
}
