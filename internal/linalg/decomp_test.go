package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQRReconstruction(t *testing.T) {
	rng := NewRNG(42)
	for _, shape := range [][2]int{{5, 3}, {10, 10}, {50, 8}, {3, 1}} {
		a := rng.GaussianMatrix(shape[0], shape[1])
		f := QR(a)
		if !Equal(f.Q.Mul(f.R), a, 1e-9) {
			t.Errorf("QR reconstruction failed for %dx%d", shape[0], shape[1])
		}
		// Q must have orthonormal columns.
		qtq := f.Q.TMul(f.Q)
		if !Equal(qtq, Identity(shape[1]), 1e-9) {
			t.Errorf("QᵀQ != I for %dx%d", shape[0], shape[1])
		}
		// R must be upper triangular.
		for i := 0; i < f.R.Rows; i++ {
			for j := 0; j < i; j++ {
				if math.Abs(f.R.At(i, j)) > 1e-10 {
					t.Errorf("R not upper triangular at (%d,%d): %g", i, j, f.R.At(i, j))
				}
			}
		}
	}
}

func TestQRRankDeficient(t *testing.T) {
	// Column 1 = 2 * column 0: QR must still reconstruct.
	a := NewMatrixFrom([][]float64{{1, 2}, {2, 4}, {3, 6}})
	f := QR(a)
	if !Equal(f.Q.Mul(f.R), a, 1e-9) {
		t.Error("QR reconstruction failed for rank-deficient input")
	}
}

func TestLeastSquaresQRExactFit(t *testing.T) {
	// Plant a known X and recover it from a consistent system.
	rng := NewRNG(9)
	a := rng.GaussianMatrix(40, 6)
	xTrue := rng.GaussianMatrix(6, 3)
	b := a.Mul(xTrue)
	x := LeastSquaresQR(a, b)
	if !Equal(x, xTrue, 1e-8) {
		t.Errorf("least squares did not recover planted solution; residual %g",
			x.Clone().Sub(xTrue).FrobeniusNorm())
	}
}

func TestLeastSquaresQRNormalEquations(t *testing.T) {
	// For inconsistent systems the solution must satisfy Aᵀ(AX - B) = 0.
	rng := NewRNG(10)
	a := rng.GaussianMatrix(30, 5)
	b := rng.GaussianMatrix(30, 2)
	x := LeastSquaresQR(a, b)
	grad := a.TMul(a.Mul(x).Sub(b))
	if grad.MaxAbs() > 1e-8 {
		t.Errorf("normal equations violated: max |Aᵀr| = %g", grad.MaxAbs())
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := NewRNG(11)
	g := rng.GaussianMatrix(20, 6)
	s := g.TMul(g) // SPD (a.s.)
	for i := 0; i < 6; i++ {
		s.Set(i, i, s.At(i, i)+1e-6)
	}
	xTrue := rng.GaussianMatrix(6, 2)
	b := s.Mul(xTrue)
	x := CholeskySolve(s, b)
	if !Equal(x, xTrue, 1e-6) {
		t.Errorf("Cholesky solve residual %g", x.Clone().Sub(xTrue).FrobeniusNorm())
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := NewRNG(12)
	for _, shape := range [][2]int{{8, 5}, {5, 8}, {12, 12}, {1, 4}} {
		a := rng.GaussianMatrix(shape[0], shape[1])
		f := SVD(a)
		if !Equal(f.Reconstruct(), a, 1e-8) {
			t.Errorf("SVD reconstruction failed for %dx%d", shape[0], shape[1])
		}
		// Singular values must be non-negative and sorted descending.
		for i := 1; i < len(f.S); i++ {
			if f.S[i] > f.S[i-1]+1e-12 {
				t.Errorf("singular values not sorted at %d: %v", i, f.S)
			}
		}
		for _, s := range f.S {
			if s < 0 {
				t.Errorf("negative singular value %g", s)
			}
		}
		r := min(shape[0], shape[1])
		if !Equal(f.U.TMul(f.U), Identity(r), 1e-8) {
			t.Errorf("UᵀU != I for %dx%d", shape[0], shape[1])
		}
		if !Equal(f.V.TMul(f.V), Identity(r), 1e-8) {
			t.Errorf("VᵀV != I for %dx%d", shape[0], shape[1])
		}
	}
}

func TestSVDKnownValues(t *testing.T) {
	// diag(3, 2) embedded in a rectangular matrix has singular values {3, 2}.
	a := NewMatrixFrom([][]float64{{3, 0}, {0, 2}, {0, 0}})
	f := SVD(a)
	if math.Abs(f.S[0]-3) > 1e-10 || math.Abs(f.S[1]-2) > 1e-10 {
		t.Errorf("singular values = %v, want [3 2]", f.S)
	}
}

func TestTruncatedSVDLowRankRecovery(t *testing.T) {
	// Build an exactly rank-3 matrix; TSVD with k=3 must reconstruct it.
	rng := NewRNG(13)
	u := rng.GaussianMatrix(40, 3)
	v := rng.GaussianMatrix(3, 25)
	a := u.Mul(v)
	f := TruncatedSVD(a, 3, 2, NewRNG(99))
	if !Equal(f.Reconstruct(), a, 1e-6) {
		t.Errorf("TSVD failed to recover rank-3 matrix; err %g",
			f.Reconstruct().Sub(a).FrobeniusNorm())
	}
	if len(f.S) != 3 {
		t.Errorf("TSVD returned %d singular values, want 3", len(f.S))
	}
}

func TestTruncatedSVDApproximatesTopSpectrum(t *testing.T) {
	rng := NewRNG(14)
	a := rng.GaussianMatrix(60, 30)
	exact := SVD(a)
	approx := TruncatedSVD(a, 5, 3, NewRNG(5))
	for i := 0; i < 5; i++ {
		rel := math.Abs(approx.S[i]-exact.S[i]) / exact.S[i]
		if rel > 0.05 {
			t.Errorf("TSVD singular value %d off by %.1f%% (%g vs %g)", i, rel*100, approx.S[i], exact.S[i])
		}
	}
}

func TestSymEig(t *testing.T) {
	rng := NewRNG(15)
	g := rng.GaussianMatrix(15, 7)
	s := g.TMul(g)
	vals, v := SymEig(s)
	// Reconstruct: S = V diag(vals) Vᵀ.
	rec := v.Mul(Diag(vals)).Mul(v.T())
	if !Equal(rec, s, 1e-7) {
		t.Errorf("SymEig reconstruction residual %g", rec.Sub(s).FrobeniusNorm())
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1]+1e-10 {
			t.Errorf("eigenvalues not sorted: %v", vals)
		}
	}
	if !Equal(v.TMul(v), Identity(7), 1e-8) {
		t.Error("eigenvectors not orthonormal")
	}
}

// Property (testing/quick): SVD singular values are invariant under
// row permutation (here: reversal).
func TestSVDPermutationInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		r, c := 2+rng.Intn(8), 2+rng.Intn(8)
		a := rng.GaussianMatrix(r, c)
		rev := NewMatrix(r, c)
		for i := 0; i < r; i++ {
			rev.SetRow(i, a.Row(r-1-i))
		}
		s1 := SVD(a).S
		s2 := SVD(rev).S
		for i := range s1 {
			if math.Abs(s1[i]-s2[i]) > 1e-8*(1+s1[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property (testing/quick): sum of squared singular values equals the
// squared Frobenius norm.
func TestSVDEnergyConservation(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		a := rng.GaussianMatrix(2+rng.Intn(10), 2+rng.Intn(10))
		var e float64
		for _, s := range SVD(a).S {
			e += s * s
		}
		fn := a.FrobeniusNorm()
		return math.Abs(e-fn*fn) < 1e-7*(1+fn*fn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// bitsEqual reports the first element at which a and b differ in their
// Float64bits (so -0 against +0 and NaN payloads count), or -1.
func bitsEqual(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestQRInPlaceBits pins QRInPlace to QR bit for bit: Q in q, R in the
// upper triangle of the factored input, and Q again when q is the input
// itself. The buffers it reuses hold NaN garbage and a Householder
// scratch left by an earlier, larger factorization.
func TestQRInPlaceBits(t *testing.T) {
	rng := NewRNG(40)
	tall := rng.GaussianMatrix(50, 8)
	square := rng.GaussianMatrix(10, 10)
	deficient := rng.GaussianMatrix(30, 6)
	for i := 0; i < deficient.Rows; i++ {
		deficient.Set(i, 3, 2*deficient.At(i, 1)-deficient.At(i, 0))
		deficient.Set(i, 5, deficient.At(i, 3))
	}
	zeroCol := rng.GaussianMatrix(20, 5)
	for i := 0; i < zeroCol.Rows; i++ {
		zeroCol.Set(i, 2, 0)
	}
	cases := []struct {
		name string
		a    *Matrix
	}{
		{"tall", tall}, {"square", square}, {"rank-deficient", deficient},
		{"zero column", zeroCol}, {"no columns", NewMatrix(7, 0)},
	}
	for _, mode := range []BackendMode{ModeReference, ModeBlocked} {
		withMode(t, mode, func() {
			// The scratch of a larger factorization, and a Q buffer cut
			// from a larger NaN-filled one.
			vs := QRInPlace(rng.GaussianMatrix(80, 12), NewMatrix(80, 12), nil)
			garbage := make([]float64, 80*12)
			for _, tc := range cases {
				want := QR(tc.a)
				m, n := tc.a.Rows, tc.a.Cols
				for i := range garbage {
					garbage[i] = math.NaN()
				}
				for i := range vs {
					vs[i] = math.Inf(-1)
				}
				a := tc.a.Clone()
				q := &Matrix{Rows: m, Cols: n, Data: garbage[:m*n]}
				vs = QRInPlace(a, q, vs)
				if i := bitsEqual(q.Data, want.Q.Data); i >= 0 {
					t.Errorf("mode %d %s: Q differs from QR's at element %d", mode, tc.name, i)
				}
				for i := 0; i < n; i++ {
					if j := bitsEqual(a.Row(i)[i:], want.R.Row(i)[i:]); j >= 0 {
						t.Errorf("mode %d %s: R(%d, %d) differs from QR's", mode, tc.name, i, i+j)
					}
				}
				// q aliasing a: a ends up holding Q.
				a = tc.a.Clone()
				vs = QRInPlace(a, a, vs)
				if i := bitsEqual(a.Data, want.Q.Data); i >= 0 {
					t.Errorf("mode %d %s: Q factored into a differs from QR's at element %d", mode, tc.name, i)
				}
			}
		})
	}
}

func TestQRInPlaceRejectsShapes(t *testing.T) {
	for name, fn := range map[string]func(){
		"wide a":   func() { QRInPlace(NewMatrix(3, 4), NewMatrix(3, 4), nil) },
		"short q":  func() { QRInPlace(NewMatrix(5, 2), NewMatrix(4, 2), nil) },
		"narrow q": func() { QRInPlace(NewMatrix(5, 2), NewMatrix(5, 1), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: QRInPlace did not panic", name)
				}
			}()
			fn()
		}()
	}
}
