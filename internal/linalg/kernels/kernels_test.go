package kernels

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func naiveGemm(dst, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			av := a[i*k+kk]
			for j := 0; j < n; j++ {
				dst[i*n+j] += av * b[kk*n+j]
			}
		}
	}
}

var edgeSizes = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33}

func TestGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range edgeSizes {
		for _, k := range edgeSizes {
			for _, n := range edgeSizes {
				a := randSlice(rng, m*k)
				b := randSlice(rng, k*n)
				want := make([]float64, m*n)
				naiveGemm(want, a, b, m, k, n)
				got := make([]float64, m*n)
				Gemm(got, a, b, m, k, n)
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("Gemm %dx%dx%d: elem %d = %g, want %g", m, k, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestGemmTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, r := range edgeSizes {
		for _, m := range edgeSizes {
			for _, n := range edgeSizes {
				a := randSlice(rng, r*m)
				b := randSlice(rng, r*n)
				want := make([]float64, m*n)
				for kk := 0; kk < r; kk++ {
					for i := 0; i < m; i++ {
						av := a[kk*m+i]
						for j := 0; j < n; j++ {
							want[i*n+j] += av * b[kk*n+j]
						}
					}
				}
				got := make([]float64, m*n)
				GemmT(got, a, b, r, m, n)
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("GemmT %dx%dx%d: elem %d = %g, want %g", r, m, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestDotAxpyMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range edgeSizes {
		a := randSlice(rng, n)
		b := randSlice(rng, n)
		var want float64
		for i := range a {
			want += a[i] * b[i]
		}
		if got := Dot(a, b); got != want {
			t.Fatalf("Dot n=%d: got %g, want %g", n, got, want)
		}
		y := randSlice(rng, n)
		wantY := append([]float64(nil), y...)
		alpha := rng.NormFloat64()
		for i := range wantY {
			wantY[i] += alpha * a[i]
		}
		Axpy(alpha, a, y)
		for i := range y {
			if y[i] != wantY[i] {
				t.Fatalf("Axpy n=%d: elem %d = %g, want %g", n, i, y[i], wantY[i])
			}
		}
	}
}

func TestGemvAndGemvT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, rows := range edgeSizes {
		for _, cols := range edgeSizes {
			lda := cols + 3 // exercise panels narrower than their stride
			a := randSlice(rng, rows*lda+1)
			x := randSlice(rng, cols)
			want := make([]float64, rows)
			for i := 0; i < rows; i++ {
				var s float64
				for j := 0; j < cols; j++ {
					s += a[i*lda+j] * x[j]
				}
				want[i] = s
			}
			got := make([]float64, rows)
			Gemv(a, lda, rows, cols, x, got)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("Gemv %dx%d: row %d = %g, want %g", rows, cols, i, got[i], want[i])
				}
			}

			xr := randSlice(rng, rows)
			wantT := randSlice(rng, cols)
			gotT := append([]float64(nil), wantT...)
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					wantT[j] += xr[i] * a[i*lda+j]
				}
			}
			GemvT(a, lda, rows, cols, xr, gotT)
			for j := range wantT {
				if wantT[j] != gotT[j] {
					t.Fatalf("GemvT %dx%d: col %d = %g, want %g", rows, cols, j, gotT[j], wantT[j])
				}
			}
		}
	}
}

func TestGerMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, rows := range edgeSizes {
		for _, cols := range edgeSizes {
			lda := cols + 1
			a := randSlice(rng, rows*lda+1)
			want := append([]float64(nil), a...)
			x := randSlice(rng, rows)
			y := randSlice(rng, cols)
			alpha := rng.NormFloat64()
			for i := 0; i < rows; i++ {
				s := alpha * x[i]
				for j := 0; j < cols; j++ {
					want[i*lda+j] += s * y[j]
				}
			}
			Ger(a, lda, rows, cols, alpha, x, y)
			for i := range want {
				if want[i] != a[i] {
					t.Fatalf("Ger %dx%d: elem %d = %g, want %g", rows, cols, i, a[i], want[i])
				}
			}
		}
	}
}

func TestGatherScatterCol(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows, cols := 9, 5
	a := randSlice(rng, rows*cols)
	col := make([]float64, rows)
	GatherCol(col, a, cols, rows, 3)
	for i := 0; i < rows; i++ {
		if col[i] != a[i*cols+3] {
			t.Fatalf("GatherCol row %d: got %g, want %g", i, col[i], a[i*cols+3])
		}
	}
	repl := randSlice(rng, rows)
	ScatterCol(a, repl, cols, rows, 2)
	for i := 0; i < rows; i++ {
		if a[i*cols+2] != repl[i] {
			t.Fatalf("ScatterCol row %d: got %g, want %g", i, a[i*cols+2], repl[i])
		}
	}
}

func TestColPairSumsAndRotations(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rows, cols := 37, 6
	a := randSlice(rng, rows*cols)
	var app, aqq, apq float64
	for i := 0; i < rows; i++ {
		up := a[i*cols+1]
		uq := a[i*cols+4]
		app += up * up
		aqq += uq * uq
		apq += up * uq
	}
	gp, gq, gpq := ColPairSums(a, cols, rows, 1, 4)
	if gp != app || gq != aqq || gpq != apq {
		t.Fatalf("ColPairSums: got (%g,%g,%g), want (%g,%g,%g)", gp, gq, gpq, app, aqq, apq)
	}

	c, s := math.Cos(0.3), math.Sin(0.3)
	want := append([]float64(nil), a...)
	for i := 0; i < rows; i++ {
		up := want[i*cols+1]
		uq := want[i*cols+4]
		want[i*cols+1] = c*up - s*uq
		want[i*cols+4] = s*up + c*uq
	}
	RotCols(a, cols, rows, 1, 4, c, s)
	for i := range want {
		if want[i] != a[i] {
			t.Fatalf("RotCols: elem %d = %g, want %g", i, a[i], want[i])
		}
	}

	rp := randSlice(rng, 11)
	rq := randSlice(rng, 11)
	wp := append([]float64(nil), rp...)
	wq := append([]float64(nil), rq...)
	for i := range wp {
		vp, vq := wp[i], wq[i]
		wp[i] = c*vp - s*vq
		wq[i] = s*vp + c*vq
	}
	RotRows(rp, rq, c, s)
	for i := range wp {
		if rp[i] != wp[i] || rq[i] != wq[i] {
			t.Fatalf("RotRows: elem %d = (%g,%g), want (%g,%g)", i, rp[i], rq[i], wp[i], wq[i])
		}
	}
}

// TestRotColsInlineAndSplit: RotCols gives the row-by-row rotation's
// bits both below the split threshold, where it runs inline and
// allocates nothing, and at it, where the pool may split the rows.
func TestRotColsInlineAndSplit(t *testing.T) {
	const minChunk = 1 + gemvParallelFlops/8
	rng := rand.New(rand.NewSource(9))
	c, s := math.Cos(0.7), math.Sin(0.7)
	for _, rows := range []int{1, 37, 2*minChunk - 1, 2 * minChunk} {
		const cols = 3
		a := randSlice(rng, rows*cols)
		want := append([]float64(nil), a...)
		for i := 0; i < rows; i++ {
			up, uq := want[i*cols], want[i*cols+2]
			want[i*cols] = c*up - s*uq
			want[i*cols+2] = s*up + c*uq
		}
		RotCols(a, cols, rows, 0, 2, c, s)
		for i := range want {
			if math.Float64bits(a[i]) != math.Float64bits(want[i]) {
				t.Fatalf("rows %d: elem %d = %g, want %g", rows, i, a[i], want[i])
			}
		}
	}
	a := randSlice(rng, 37*6)
	if allocs := testing.AllocsPerRun(100, func() { RotCols(a, 6, 37, 1, 4, c, s) }); allocs != 0 {
		t.Errorf("RotCols on 37 rows: %v allocations, want 0", allocs)
	}
}

func TestParallelChunksCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 1000} {
		var mu sync.Mutex
		seen := make([]int, n)
		ParallelChunks(n, 1, func(lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestParallelChunksNestedDoesNotDeadlock(t *testing.T) {
	var total int64
	var mu sync.Mutex
	ParallelChunks(8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ParallelChunks(4, 1, func(l, h int) {
				mu.Lock()
				total += int64(h - l)
				mu.Unlock()
			})
		}
	})
	if total != 32 {
		t.Fatalf("nested ParallelChunks covered %d items, want 32", total)
	}
	if got := active.Load(); got != 0 {
		t.Fatalf("helper budget leaked: active = %d after all work done", got)
	}
}

func TestParallelChunksPropagatesPanic(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic to propagate out of ParallelChunks")
		}
		if got := active.Load(); got != 0 {
			t.Fatalf("helper budget leaked after panic: active = %d", got)
		}
	}()
	ParallelChunks(runtime.GOMAXPROCS(0)+4, 1, func(lo, hi int) {
		panic("boom")
	})
}
