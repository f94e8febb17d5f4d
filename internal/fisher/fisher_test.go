package fisher

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"keystoneml/internal/core"
	"keystoneml/internal/gmm"
	"keystoneml/internal/linalg"
)

func toyModel() *gmm.Model {
	return &gmm.Model{
		Weights: []float64{0.5, 0.5},
		Means:   linalg.NewMatrixFrom([][]float64{{0, 0}, {5, 5}}),
		Vars:    linalg.NewMatrixFrom([][]float64{{1, 1}, {1, 1}}),
	}
}

func TestEncodeDimensionality(t *testing.T) {
	e := NewEncoder(toyModel())
	fv := e.Encode([][]float64{{0.1, -0.2}, {4.9, 5.1}})
	if len(fv) != 2*2*2 {
		t.Fatalf("fv length = %d, want 8 (2*K*d)", len(fv))
	}
}

func TestEncodeL2Normalized(t *testing.T) {
	e := NewEncoder(toyModel())
	fv := e.Encode([][]float64{{0.5, 0.3}, {5.5, 4.7}, {1, 0}})
	if n := linalg.Norm2(fv); math.Abs(n-1) > 1e-9 {
		t.Errorf("||fv|| = %g, want 1", n)
	}
}

func TestEncodeEmptyDescriptorSet(t *testing.T) {
	e := NewEncoder(toyModel())
	fv := e.Encode(nil)
	if len(fv) != 8 {
		t.Fatalf("empty fv length = %d", len(fv))
	}
	for _, v := range fv {
		if v != 0 {
			t.Error("empty descriptor set should encode to zeros")
		}
	}
}

func TestEncodeAtMeansIsSmall(t *testing.T) {
	// Descriptors exactly at component means with balanced assignment
	// produce near-zero mean-gradient terms.
	e := &Encoder{Model: toyModel()} // no normalization
	fv := e.Encode([][]float64{{0, 0}, {5, 5}})
	k, d := 2, 2
	for c := 0; c < k; c++ {
		for j := 0; j < d; j++ {
			if math.Abs(fv[c*d+j]) > 1e-9 {
				t.Errorf("mean gradient (%d,%d) = %g, want ~0", c, j, fv[c*d+j])
			}
		}
	}
}

func TestEncodeDiscriminates(t *testing.T) {
	// Images drawn around different components must encode differently.
	e := NewEncoder(toyModel())
	a := e.Encode([][]float64{{0.2, -0.1}, {-0.3, 0.2}})
	b := e.Encode([][]float64{{5.2, 4.9}, {4.7, 5.2}})
	var dist float64
	for i := range a {
		d := a[i] - b[i]
		dist += d * d
	}
	if math.Sqrt(dist) < 0.5 {
		t.Errorf("fisher vectors of distinct content too close: %g", math.Sqrt(dist))
	}
}

func TestApplyTypeCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewEncoder(toyModel()).Apply([]float64{1, 2})
}

func TestPowerNormSignPreserved(t *testing.T) {
	e := &Encoder{Model: toyModel(), PowerNorm: true}
	fv := e.Encode([][]float64{{1, 1}})
	anyNeg := false
	for _, v := range fv {
		if v < 0 {
			anyNeg = true
		}
	}
	if !anyNeg {
		t.Skip("no negative components in this encoding; sign test vacuous")
	}
}

// TestDecodedEncoderConcurrentApply serves one artifact-decoded encoder
// from several goroutines at once, as a serve route does: the model's
// logarithm table is built on first use, so run it under -race.
func TestDecodedEncoderConcurrentApply(t *testing.T) {
	kind, state, err := core.EncodeOp(NewEncoder(toyModel()))
	if err != nil {
		t.Fatal(err)
	}
	op, err := core.DecodeOp(kind, state)
	if err != nil {
		t.Fatal(err)
	}
	descs := [][]float64{{0.5, 0.3}, {5.5, 4.7}, {1, 0}}
	want := NewEncoder(toyModel()).Encode(descs)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := op.Apply(descs).([]float64); !reflect.DeepEqual(got, want) {
					t.Errorf("decoded encoder gave %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEncodeAllocs: Encode allocates its Fisher vector and one posterior
// vector, however many descriptors it encodes.
func TestEncodeAllocs(t *testing.T) {
	rng := linalg.NewRNG(5)
	m := &gmm.Model{Weights: []float64{0.1, 0.2, 0.3, 0.15, 0.15, 0.1}, Means: rng.GaussianMatrix(6, 12), Vars: linalg.NewMatrix(6, 12)}
	for i := range m.Vars.Data {
		m.Vars.Data[i] = 0.5 + rng.Float64()
	}
	e := NewEncoder(m)
	for _, n := range []int{1, 25, 400} {
		descs := make([][]float64, n)
		for i := range descs {
			descs[i] = rng.GaussianVector(12)
		}
		if allocs := testing.AllocsPerRun(10, func() { e.Encode(descs) }); allocs > 2 {
			t.Errorf("%d descriptors: %.0f allocations per call, want at most 2", n, allocs)
		}
	}
}
