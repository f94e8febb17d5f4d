package kernels

// Dot returns the inner product of two equal-length vectors using a
// single accumulator in ascending index order (bit-identical to the
// naive loop), unrolled 4x to cut loop overhead.
func Dot(a, b []float64) float64 {
	var s float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s += a[i] * b[i]
		s += a[i+1] * b[i+1]
		s += a[i+2] * b[i+2]
		s += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes y += alpha*x over len(x) elements via the vectorized
// axpy primitive. Element-wise, so ordering is trivially identical to
// the reference loop.
func Axpy(alpha float64, x, y []float64) {
	axpyTo(alpha, x, y[:len(x)])
}

// Gemv computes y[i] = dot(a row i, x) for the rows x cols row-major
// matrix a with leading dimension lda. Rows are independent outputs, so
// they fan across the worker pool; each output is one ascending-order
// accumulator chain exactly like Dot, processed four rows at a time so
// loads of x are shared.
func Gemv(a []float64, lda, rows, cols int, x, y []float64) {
	if rows <= 0 {
		return
	}
	minChunk := 1 + gemvParallelFlops/(2*cols+1)
	if rows < 2*minChunk {
		// Too small to fan out: skip the closure (a heap allocation per
		// call, which a per-record Gemv would pay on every record).
		gemvRows(a, lda, cols, x, y, 0, rows)
		return
	}
	ParallelChunks(rows, minChunk, func(lo, hi int) { gemvRows(a, lda, cols, x, y, lo, hi) })
}

// gemvRows computes rows [lo, hi) of Gemv.
func gemvRows(a []float64, lda, cols int, x, y []float64, lo, hi int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		r0 := a[i*lda : i*lda+cols]
		r1 := a[(i+1)*lda : (i+1)*lda+cols]
		r2 := a[(i+2)*lda : (i+2)*lda+cols]
		r3 := a[(i+3)*lda : (i+3)*lda+cols]
		var s0, s1, s2, s3 float64
		for j, xj := range x[:cols] {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		y[i] = s0
		y[i+1] = s1
		y[i+2] = s2
		y[i+3] = s3
	}
	for ; i < hi; i++ {
		y[i] = Dot(a[i*lda:i*lda+cols], x[:cols])
	}
}

// gemvParallelFlops is the minimum per-chunk flop count before GEMV-like
// kernels spawn helpers; below this the fan-out costs more than it saves.
const gemvParallelFlops = 1 << 15

// GemvT accumulates y[j] += sum_i x[i] * a[i*lda+j] for the rows x cols
// row-major panel a — the transpose-vector product behind TMulVec and
// the QR Householder projection. Accumulation runs in axpy form with
// ascending i and one add per product, matching the reference order for
// every y[j]; four rows are blocked per pass so each y element stays in
// a register across four updates. Columns are partitioned across the
// pool (each worker owns a j-range, so no two workers touch the same
// output element).
func GemvT(a []float64, lda, rows, cols int, x, y []float64) {
	if rows <= 0 || cols <= 0 {
		return
	}
	minChunk := 1 + gemvParallelFlops/(2*rows+1)
	ParallelChunks(cols, minChunk, func(jlo, jhi int) {
		yy := y[jlo:jhi]
		i := 0
		for ; i+4 <= rows; i += 4 {
			axpy4(yy,
				x[i], x[i+1], x[i+2], x[i+3],
				a[i*lda+jlo:i*lda+jhi],
				a[(i+1)*lda+jlo:(i+1)*lda+jhi],
				a[(i+2)*lda+jlo:(i+2)*lda+jhi],
				a[(i+3)*lda+jlo:(i+3)*lda+jhi])
		}
		for ; i < rows; i++ {
			axpyTo(x[i], a[i*lda+jlo:i*lda+jhi], yy)
		}
	})
}

// Ger applies the rank-1 update a[i*lda+j] += alpha*x[i]*y[j] to the
// rows x cols row-major panel a. alpha*x[i] is folded once per row, so
// each element sees a single multiply-add; rows are independent and fan
// across the pool.
func Ger(a []float64, lda, rows, cols int, alpha float64, x, y []float64) {
	if rows <= 0 || cols <= 0 {
		return
	}
	minChunk := 1 + gemvParallelFlops/(2*cols+1)
	ParallelChunks(rows, minChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			axpyTo(alpha*x[i], y[:cols], a[i*lda:i*lda+cols])
		}
	})
}

// GatherCol copies column col of the rows x cols row-major matrix a
// (leading dimension lda) into dst[:rows] with a single strided walk.
func GatherCol(dst, a []float64, lda, rows, col int) {
	idx := col
	for i := 0; i < rows; i++ {
		dst[i] = a[idx]
		idx += lda
	}
}

// ScatterCol copies src[:rows] into column col of the row-major matrix a.
func ScatterCol(a, src []float64, lda, rows, col int) {
	idx := col
	for i := 0; i < rows; i++ {
		a[idx] = src[i]
		idx += lda
	}
}

// ColPairSums walks columns p and q of the rows x stride row-major
// matrix once and returns the fused Gram sums (Σ aᵢₚ², Σ aᵢq², Σ aᵢₚaᵢq)
// needed by a one-sided Jacobi step. Three independent ascending-order
// accumulators — the same sequence as three separate naive loops.
func ColPairSums(a []float64, stride, rows, p, q int) (app, aqq, apq float64) {
	ip, iq := p, q
	for i := 0; i < rows; i++ {
		up := a[ip]
		uq := a[iq]
		app += up * up
		aqq += uq * uq
		apq += up * uq
		ip += stride
		iq += stride
	}
	return app, aqq, apq
}

// RotCols applies the plane rotation (p', q') = (c*p - s*q, s*p + c*q)
// to columns p and q of the rows x stride row-major matrix. Rows are
// independent, so large matrices fan across the pool.
func RotCols(a []float64, stride, rows, p, q int, c, s float64) {
	ParallelChunks(rows, 1+gemvParallelFlops/8, func(lo, hi int) {
		ip, iq := lo*stride+p, lo*stride+q
		for i := lo; i < hi; i++ {
			up := a[ip]
			uq := a[iq]
			a[ip] = c*up - s*uq
			a[iq] = s*up + c*uq
			ip += stride
			iq += stride
		}
	})
}

// RotRows applies the same plane rotation to two contiguous rows.
func RotRows(rp, rq []float64, c, s float64) {
	for i, vp := range rp {
		vq := rq[i]
		rp[i] = c*vp - s*vq
		rq[i] = s*vp + c*vq
	}
}
