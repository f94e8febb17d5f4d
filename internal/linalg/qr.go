package linalg

import (
	"fmt"
	"math"

	"keystoneml/internal/linalg/kernels"
)

// QRFactors holds the thin QR factorization A = Q R of an m x n matrix
// with m >= n: Q is m x n with orthonormal columns and R is n x n upper
// triangular.
type QRFactors struct {
	Q *Matrix
	R *Matrix
}

// QR computes a thin Householder QR factorization of a (m >= n required).
// The input matrix is not modified: QR is QRInPlace on a clone of a, with
// a fresh Q and the zero-filled upper triangle of the factored clone as R.
func QR(a *Matrix) *QRFactors {
	r := a.Clone()
	q := NewMatrix(a.Rows, a.Cols)
	QRInPlace(r, q, nil)
	// Extract the upper-triangular n x n block of R, zeroing round-off below
	// the diagonal.
	n := a.Cols
	rr := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		copy(rr.Row(i)[i:], r.Row(i)[i:])
	}
	return &QRFactors{Q: q, R: rr}
}

// QRInPlace is the Householder loop behind QR, for callers that factor
// many matrices and do not need the input afterwards (the randomized
// range finders of TruncatedSVD and the distributed PCA). a is m x n with
// m >= n; q is m x n.
//
// It overwrites every argument. On return the upper triangle of a's
// leading n x n block holds R and the entries below it hold round-off,
// not zeros; q holds the thin Q, whatever it held before. q may be a
// itself when R is not needed: Q is accumulated from the Householder
// vectors alone, after the last read of a, so a then holds Q. vs is the
// Householder-vector scratch: its contents are ignored, it is grown when
// shorter than the factorization needs, and it is returned, so a caller
// reusing it passes back what the previous call returned. Q and R are
// bit-identical to QR's for any contents of q and vs.
//
// The trailing-panel reflector applications — the PCA/whitening hot
// loop — run as GemvT (projection w = R_panelᵀ v) plus Ger (rank-1
// update R_panel -= v (2w)ᵀ) through the kernel backend registry. Both
// forms accumulate in the same per-element order as the classic
// per-column dot loops, so the factorization is bit-identical across
// backends.
func QRInPlace(a, q *Matrix, vs []float64) []float64 {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("linalg: QR requires rows >= cols, got %dx%d", m, n))
	}
	if q.Rows != m || q.Cols != n {
		panic(fmt.Sprintf("linalg: QRInPlace wants a %dx%d Q, got %dx%d", m, n, q.Rows, q.Cols))
	}
	// Householder vector k has length m-k; lay them out back to back,
	// then the n-vector w of the panel products.
	vsLen := n*m - n*(n-1)/2
	if cap(vs) < vsLen+n {
		vs = make([]float64, vsLen+n)
	}
	vs = vs[:vsLen+n]
	w := vs[vsLen:]
	vec := func(k int) []float64 {
		off := k*m - k*(k-1)/2
		return vs[off : off+m-k]
	}
	r := a.Data
	for k := 0; k < n; k++ {
		// Build the Householder reflector for column k below the diagonal.
		v := vec(k)
		kernels.GatherCol(v, r[k*n:], n, m-k, k)
		b := Choose(OpGemvT, m-k, n-k, 1)
		norm := math.Sqrt(b.Dot(v, v))
		if norm == 0 {
			continue // zero column; identity reflector
		}
		if v[0] >= 0 {
			v[0] += norm
		} else {
			v[0] -= norm
		}
		vnorm := Norm2(v)
		if vnorm > 0 {
			ScaleInPlace(1/vnorm, v)
		}
		// Apply the reflector to the trailing submatrix: R <- (I - 2vvᵀ)R,
		// i.e. w = R_panelᵀ v followed by R_panel -= v (2w)ᵀ.
		panel := r[k*n+k:]
		ww := w[:n-k]
		clear(ww)
		b.GemvT(panel, n, m-k, n-k, v, ww)
		for j := range ww {
			ww[j] *= 2
		}
		b.Ger(panel, n, m-k, n-k, -1, v, ww)
	}
	// Accumulate the thin Q by applying reflectors (in reverse) to I_{m x n}.
	clear(q.Data)
	for j := 0; j < n; j++ {
		q.Set(j, j, 1)
	}
	for k := n - 1; k >= 0; k-- {
		v := vec(k)
		panel := q.Data[k*n:]
		clear(w)
		b := Choose(OpGemvT, m-k, n, 1)
		b.GemvT(panel, n, m-k, n, v, w)
		for j := range w {
			w[j] *= 2
		}
		b.Ger(panel, n, m-k, n, -1, v, w)
	}
	return vs
}

// SolveUpperTriangular solves R x = b for upper-triangular R by back
// substitution. Singular (zero) diagonal entries produce zero solution
// components, matching the minimum-norm convention used by the solvers.
func SolveUpperTriangular(r *Matrix, b []float64) []float64 {
	n := r.Rows
	if r.Cols != n || len(b) != n {
		panic(fmt.Sprintf("linalg: SolveUpperTriangular wants square R and matching b, got %dx%d, len(b)=%d", r.Rows, r.Cols, len(b)))
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		row := r.Row(i)
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		if d := row[i]; d != 0 {
			x[i] = s / d
		}
	}
	return x
}

// SolveUpperTriangularMatrix solves R X = B column-by-column.
func SolveUpperTriangularMatrix(r, b *Matrix) *Matrix {
	if r.Rows != b.Rows {
		panic(fmt.Sprintf("linalg: triangular solve shape mismatch R %dx%d, B %dx%d", r.Rows, r.Cols, b.Rows, b.Cols))
	}
	x := NewMatrix(r.Cols, b.Cols)
	col := make([]float64, b.Rows)
	for j := 0; j < b.Cols; j++ {
		b.ColInto(col, j)
		sol := SolveUpperTriangular(r, col)
		kernels.ScatterCol(x.Data, sol, x.Cols, x.Rows, j)
	}
	return x
}

// LeastSquaresQR solves min_X ||A X - B||_F via thin QR: X = R⁻¹ Qᵀ B.
// This is the "Local QR / Exact" solver primitive from Table 1.
func LeastSquaresQR(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("linalg: least squares row mismatch A %dx%d, B %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	f := QR(a)
	qtb := f.Q.TMul(b) // n x k
	return SolveUpperTriangularMatrix(f.R, qtb)
}

// CholeskySolve solves the symmetric positive definite system S X = B via
// Cholesky factorization. Used for normal-equation solves (AᵀA + λI) X = AᵀB.
// It returns an error-free solution; a non-positive pivot panics, so callers
// should regularize first.
func CholeskySolve(s, b *Matrix) *Matrix {
	n := s.Rows
	if s.Cols != n || b.Rows != n {
		panic(fmt.Sprintf("linalg: CholeskySolve wants square S matching B, got %dx%d, B %dx%d", s.Rows, s.Cols, b.Rows, b.Cols))
	}
	// Lower-triangular factor L with S = L Lᵀ.
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := s.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					panic(fmt.Sprintf("linalg: CholeskySolve non-PD pivot %g at %d", sum, i))
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	// Solve L Y = B (forward), then Lᵀ X = Y (backward), per column.
	x := NewMatrix(n, b.Cols)
	y := make([]float64, n)
	for c := 0; c < b.Cols; c++ {
		for i := 0; i < n; i++ {
			sum := b.At(i, c)
			for k := 0; k < i; k++ {
				sum -= l.At(i, k) * y[k]
			}
			y[i] = sum / l.At(i, i)
		}
		for i := n - 1; i >= 0; i-- {
			sum := y[i]
			for k := i + 1; k < n; k++ {
				sum -= l.At(k, i) * x.At(k, c)
			}
			x.Set(i, c, sum/l.At(i, i))
		}
	}
	return x
}
