package linalg

import (
	"fmt"
	"math"
	"sort"

	"keystoneml/internal/linalg/kernels"
)

// SVDFactors holds a thin singular value decomposition A = U diag(S) Vᵀ of
// an m x n matrix: U is m x r, S has length r, V is n x r, where
// r = min(m, n). Singular values are in non-increasing order.
type SVDFactors struct {
	U *Matrix
	S []float64
	V *Matrix
}

// jacobiSweepLimit bounds the number of one-sided Jacobi sweeps. 30 sweeps
// converge for all well-conditioned inputs at double precision.
const jacobiSweepLimit = 30

// SVD computes a thin SVD using one-sided Jacobi rotations. For m < n the
// decomposition of the transpose is computed and the factors swapped, so
// any shape is accepted. The exact SVD path is the O(n d^2) operator from
// Table 2 of the paper.
func SVD(a *Matrix) *SVDFactors {
	if a.Rows < a.Cols {
		f := SVD(a.T())
		return &SVDFactors{U: f.V, S: f.S, V: f.U}
	}
	m, n := a.Rows, a.Cols
	u := a.Clone()
	v := Identity(n)
	// One-sided Jacobi: orthogonalize pairs of columns of U, accumulating
	// the rotations in V. On convergence U = A V with orthogonal columns,
	// so A = (U/|U|) diag(|U|) Vᵀ.
	// The pair sums and plane rotations run on strided kernels (fused
	// single-pass Gram sums, direct-indexed rotations) with the same
	// per-element arithmetic order as the scalar At/Set loops.
	eps := 1e-12
	for sweep := 0; sweep < jacobiSweepLimit; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				app, aqq, apq := kernels.ColPairSums(u.Data, n, m, p, q)
				if math.Abs(apq) <= eps*math.Sqrt(app*aqq) {
					continue
				}
				off += apq * apq
				// Compute the rotation annihilating the (p,q) off-diagonal.
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				kernels.RotCols(u.Data, n, m, p, q, c, s)
				kernels.RotCols(v.Data, n, n, p, q, c, s)
			}
		}
		if off == 0 {
			break
		}
	}
	// Extract singular values as column norms of U and normalize columns.
	s := make([]float64, n)
	for j := 0; j < n; j++ {
		norm, _, _ := kernels.ColPairSums(u.Data, n, m, j, j)
		s[j] = math.Sqrt(norm)
		if s[j] > 0 {
			inv := 1 / s[j]
			for i := 0; i < m; i++ {
				u.Data[i*n+j] *= inv
			}
		}
	}
	// Sort singular values (and corresponding columns) in descending order.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return s[order[a]] > s[order[b]] })
	us := NewMatrix(m, n)
	vs := NewMatrix(n, n)
	ss := make([]float64, n)
	for newJ, oldJ := range order {
		ss[newJ] = s[oldJ]
		for i := 0; i < m; i++ {
			us.Set(i, newJ, u.At(i, oldJ))
		}
		for i := 0; i < n; i++ {
			vs.Set(i, newJ, v.At(i, oldJ))
		}
	}
	return &SVDFactors{U: us, S: ss, V: vs}
}

// Truncate keeps only the top k singular triplets.
func (f *SVDFactors) Truncate(k int) *SVDFactors {
	if k >= len(f.S) {
		return f
	}
	return &SVDFactors{
		U: f.U.SliceCols(0, k),
		S: append([]float64(nil), f.S[:k]...),
		V: f.V.SliceCols(0, k),
	}
}

// Reconstruct returns U diag(S) Vᵀ.
func (f *SVDFactors) Reconstruct() *Matrix {
	us := f.U.Clone()
	for i := 0; i < us.Rows; i++ {
		row := us.Row(i)
		for j := range row {
			row[j] *= f.S[j]
		}
	}
	return us.Mul(f.V.T())
}

// TruncatedSVD computes an approximate rank-k SVD using randomized range
// finding (Halko, Martinsson, Tropp 2011) with nIter power iterations and
// oversampling p. This is the O(n k^2) "TSVD" operator from Table 2.
func TruncatedSVD(a *Matrix, k, nIter int, rng *RNG) *SVDFactors {
	m, n := a.Rows, a.Cols
	if k <= 0 {
		panic(fmt.Sprintf("linalg: TruncatedSVD requires k > 0, got %d", k))
	}
	if k > n {
		k = n
	}
	if k > m {
		k = m
	}
	p := k + 8 // oversampling
	if p > n {
		p = n
	}
	// Random test matrix Omega (n x p), sample the range: Y = A Omega.
	omega := rng.GaussianMatrix(n, p)
	// Power iterations sharpen the spectrum: Y = (A Aᵀ)^q A Omega, with QR
	// re-orthonormalization after each application for numerical stability.
	// One m x p buffer holds each Y and then, factored in place, its Q; one
	// Householder scratch serves every factorization.
	q := a.Mul(omega)
	vs := QRInPlace(q, q, nil)
	for it := 0; it < nIter; it++ {
		z := a.TMul(q) // n x p
		vs = QRInPlace(z, z, vs)
		clear(q.Data)
		Choose(OpGemm, m, n, p).Mul(q.Data, a.Data, z.Data, m, n, p)
		vs = QRInPlace(q, q, vs)
	}
	// Project and take the small SVD: B = Qᵀ A (p x n).
	b := q.TMul(a)
	fb := SVD(b)
	u := q.Mul(fb.U) // m x p
	return (&SVDFactors{U: u, S: fb.S, V: fb.V}).Truncate(k)
}

// SymEig computes the eigendecomposition of a symmetric n x n matrix using
// the classical Jacobi eigenvalue algorithm. It returns eigenvalues in
// descending order with the corresponding orthonormal eigenvectors as the
// columns of V.
func SymEig(a *Matrix) (vals []float64, v *Matrix) {
	n := a.Rows
	if a.Cols != n {
		panic(fmt.Sprintf("linalg: SymEig requires a square matrix, got %dx%d", a.Rows, a.Cols))
	}
	d := a.Clone()
	v = Identity(n)
	for sweep := 0; sweep < jacobiSweepLimit; sweep++ {
		var off float64
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				off += d.At(p, q) * d.At(p, q)
			}
		}
		if off < 1e-24 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := d.At(p, q)
				if apq == 0 {
					continue
				}
				app := d.At(p, p)
				aqq := d.At(q, q)
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				// Rotate rows/columns p and q of D.
				kernels.RotCols(d.Data, n, n, p, q, c, s)
				kernels.RotRows(d.Row(p), d.Row(q), c, s)
				// Rotate the eigenvector accumulator.
				kernels.RotCols(v.Data, n, n, p, q, c, s)
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = d.At(i, i)
	}
	// Sort descending, permuting eigenvectors to match.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return vals[order[a]] > vals[order[b]] })
	sorted := make([]float64, n)
	vv := NewMatrix(n, n)
	for newJ, oldJ := range order {
		sorted[newJ] = vals[oldJ]
		for i := 0; i < n; i++ {
			vv.Set(i, newJ, v.At(i, oldJ))
		}
	}
	return sorted, vv
}
