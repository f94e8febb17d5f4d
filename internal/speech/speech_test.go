package speech

import (
	"math"
	"testing"

	"keystoneml/internal/linalg"
)

func TestRandomFeaturesShape(t *testing.T) {
	rf := NewRandomFeatures(10, 64, 0.5, 1)
	out := rf.Apply(make([]float64, 10)).([]float64)
	if len(out) != 64 {
		t.Fatalf("output dim = %d, want 64", len(out))
	}
}

func TestRandomFeaturesDeterministic(t *testing.T) {
	a := NewRandomFeatures(5, 32, 1.0, 7)
	b := NewRandomFeatures(5, 32, 1.0, 7)
	x := []float64{1, 2, 3, 4, 5}
	za := a.Apply(x).([]float64)
	zb := b.Apply(x).([]float64)
	for i := range za {
		if za[i] != zb[i] {
			t.Fatal("same seed gave different feature maps")
		}
	}
	c := NewRandomFeatures(5, 32, 1.0, 8)
	zc := c.Apply(x).([]float64)
	same := true
	for i := range za {
		if za[i] != zc[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical maps")
	}
}

func TestRandomFeaturesApproximateRBFKernel(t *testing.T) {
	// z(x)·z(y) must approximate exp(-γ||x-y||²) — the Rahimi-Recht
	// guarantee, with error O(1/sqrt(D)).
	gamma := 0.3
	rf := NewRandomFeatures(6, 4096, gamma, 3)
	rng := linalg.NewRNG(4)
	var maxErr float64
	for trial := 0; trial < 20; trial++ {
		x := rng.GaussianVector(6)
		y := rng.GaussianVector(6)
		exact := Kernel(x, y, gamma)
		approx := rf.ApproxKernel(x, y)
		if e := math.Abs(exact - approx); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.08 {
		t.Errorf("kernel approximation error %.3f > 0.08 at D=4096", maxErr)
	}
}

func TestRandomFeaturesBounded(t *testing.T) {
	rf := NewRandomFeatures(4, 100, 1.0, 5)
	rng := linalg.NewRNG(6)
	bound := math.Sqrt(2.0/100.0) + 1e-12
	for trial := 0; trial < 10; trial++ {
		z := rf.Apply(rng.GaussianVector(4)).([]float64)
		for _, v := range z {
			if math.Abs(v) > bound {
				t.Fatalf("feature %g exceeds bound %g", v, bound)
			}
		}
	}
}

func TestRandomFeaturesDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRandomFeatures(4, 8, 1, 1).Apply(make([]float64, 5))
}

// TestRandomFeaturesMatchesPerRowDot pins the one-Gemv projection to the
// per-row ascending dot it replaced, bit for bit under every kernel
// dispatch mode (512 x 40 is the speech workload's shape; 7 x 5 leaves a
// row remainder for the blocked Gemv's four-row unroll).
func TestRandomFeaturesMatchesPerRowDot(t *testing.T) {
	defer linalg.SetBackendMode(linalg.Mode())
	for _, mode := range []linalg.BackendMode{linalg.ModeReference, linalg.ModeBlocked, linalg.ModeAuto} {
		linalg.SetBackendMode(mode)
		for _, shape := range [][2]int{{40, 512}, {5, 7}} {
			rf := NewRandomFeatures(shape[0], shape[1], 0.5, 11)
			x := linalg.NewRNG(12).GaussianVector(shape[0])
			x[1] = 0
			got := rf.Apply(x).([]float64)
			for i := range got {
				var dot float64
				for j, w := range rf.W.Row(i) {
					dot += w * x[j]
				}
				if want := rf.scale * math.Cos(dot+rf.B[i]); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("mode %d, %dx%d: feature %d = %v, want %v", mode, shape[1], shape[0], i, got[i], want)
				}
			}
		}
	}
}
