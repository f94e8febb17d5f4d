package image

import (
	"math"
	"reflect"
	"testing"

	"keystoneml/internal/core"
	"keystoneml/internal/engine"
	"keystoneml/internal/gmm"
	"keystoneml/internal/linalg"
)

func randomImage(seed uint64, w, h, c int) *Image {
	rng := linalg.NewRNG(seed)
	im := New(w, h, c)
	for i := range im.Pix {
		im.Pix[i] = rng.Gaussian()
	}
	return im
}

func TestSIFTDescriptorShape(t *testing.T) {
	im := randomImage(1, 48, 48, 1)
	descs := (&SIFT{}).Apply(im).([][]float64)
	if len(descs) == 0 {
		t.Fatal("no descriptors")
	}
	// Default 4x4 cells x 8 bins = 128 dims; grid (48-16)/8+1 = 5 per axis.
	if len(descs) != 25 {
		t.Errorf("descriptor count = %d, want 25", len(descs))
	}
	for _, d := range descs {
		if len(d) != 128 {
			t.Fatalf("descriptor dim = %d, want 128", len(d))
		}
		if n := linalg.Norm2(d); n > 1+1e-9 {
			t.Fatalf("descriptor norm %g > 1", n)
		}
	}
}

func TestSIFTOrientationSensitivity(t *testing.T) {
	// Horizontal vs vertical stripes must produce different descriptors.
	h := New(32, 32, 1)
	v := New(32, 32, 1)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			h.Set(x, y, 0, float64(y%2))
			v.Set(x, y, 0, float64(x%2))
		}
	}
	dh := (&SIFT{}).Apply(h).([][]float64)[0]
	dv := (&SIFT{}).Apply(v).([][]float64)[0]
	var dist float64
	for i := range dh {
		d := dh[i] - dv[i]
		dist += d * d
	}
	if math.Sqrt(dist) < 0.5 {
		t.Errorf("orientation not captured: descriptor distance %g", math.Sqrt(dist))
	}
}

func TestSIFTGrayscalesColorInput(t *testing.T) {
	descs := (&SIFT{}).Apply(randomImage(2, 32, 32, 3)).([][]float64)
	if len(descs) == 0 {
		t.Fatal("color input produced no descriptors")
	}
}

func TestLCSStatistics(t *testing.T) {
	// Constant image: std 0, mean = constant.
	im := New(16, 16, 2)
	for i := range im.Plane(1) {
		im.Plane(1)[i] = 3
	}
	descs := (&LCS{PatchSize: 4, Stride: 4}).Apply(im).([][]float64)
	if len(descs) != 16 {
		t.Fatalf("descriptor count = %d, want 16", len(descs))
	}
	for _, d := range descs {
		if len(d) != 4 {
			t.Fatalf("LCS dim = %d, want 4 (2 stats x 2 channels)", len(d))
		}
		if d[0] != 0 || d[1] != 0 || d[2] != 3 || d[3] != 0 {
			t.Fatalf("LCS stats = %v, want [0 0 3 0]", d)
		}
	}
}

func TestColumnSampler(t *testing.T) {
	descs := make([][]float64, 100)
	for i := range descs {
		descs[i] = []float64{float64(i)}
	}
	out := (&ColumnSampler{N: 10, Seed: 1}).Apply(descs).([][]float64)
	if len(out) != 10 {
		t.Fatalf("sampled %d, want 10", len(out))
	}
	// No-op when under the cap.
	out = (&ColumnSampler{N: 200, Seed: 1}).Apply(descs).([][]float64)
	if len(out) != 100 {
		t.Errorf("undersized input resampled to %d", len(out))
	}
	// Deterministic.
	a := (&ColumnSampler{N: 10, Seed: 1}).Apply(descs).([][]float64)
	b := (&ColumnSampler{N: 10, Seed: 1}).Apply(descs).([][]float64)
	for i := range a {
		if a[i][0] != b[i][0] {
			t.Fatal("sampling not deterministic")
		}
	}
}

func TestZCAWhitening(t *testing.T) {
	// Correlated 2-D data: after whitening, covariance ≈ identity-ish
	// (up to the epsilon shrinkage).
	rng := linalg.NewRNG(3)
	n := 400
	items := make([]any, n)
	for i := 0; i < n; i++ {
		a := rng.Gaussian()
		items[i] = []float64{a + 0.1*rng.Gaussian(), a + 0.1*rng.Gaussian(), rng.Gaussian()}
	}
	data := engine.FromSlice(items, 2)
	zca := (&ZCAWhitener{Epsilon: 1e-4}).Fit(engine.NewContext(0), func() *engine.Collection { return data }, nil)
	// Compute covariance of whitened output.
	cov := linalg.NewMatrix(3, 3)
	for _, it := range items {
		y := zca.Apply(it).([]float64)
		for i := range y {
			for j := range y {
				cov.Set(i, j, cov.At(i, j)+y[i]*y[j])
			}
		}
	}
	cov.Scale(1 / float64(n))
	if !linalg.Equal(cov, linalg.Identity(3), 0.15) {
		t.Errorf("whitened covariance far from identity:\n%v", cov.Data)
	}
}

func TestSymmetricRectifier(t *testing.T) {
	op := SymmetricRectifier(0.5)
	out := op.Apply([]float64{2, -2, 0.1}).([]float64)
	want := []float64{1.5, 0, 0, 0, 1.5, 0}
	if len(out) != 6 {
		t.Fatalf("rectified length = %d, want 6", len(out))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("rectified = %v, want %v", out, want)
		}
	}
}

func TestPooler(t *testing.T) {
	im := New(4, 4, 1)
	for i := range im.Pix {
		im.Pix[i] = 1
	}
	out := (&Pooler{PoolSize: 2}).Apply(im).(*Image)
	if out.Width != 2 || out.Height != 2 {
		t.Fatalf("pooled shape %v", out)
	}
	for _, v := range out.Pix {
		if v != 4 {
			t.Fatalf("pooled sum = %g, want 4", v)
		}
	}
}

func TestPoolerTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	(&Pooler{PoolSize: 10}).Apply(New(4, 4, 1))
}

func TestPatchExtractor(t *testing.T) {
	im := randomImage(4, 12, 12, 2)
	patches := (&PatchExtractor{PatchSize: 4, Stride: 4}).Apply(im).([][]float64)
	if len(patches) != 9 {
		t.Fatalf("patches = %d, want 9", len(patches))
	}
	if len(patches[0]) != 4*4*2 {
		t.Fatalf("patch dim = %d, want 32", len(patches[0]))
	}
	// First patch first value equals pixel (0,0,0).
	if patches[0][0] != im.At(0, 0, 0) {
		t.Error("patch content misaligned")
	}
}

func TestWindower(t *testing.T) {
	im := randomImage(5, 16, 16, 1)
	subs := (&Windower{Window: 8}).Apply(im).([]*Image)
	if len(subs) != 4 {
		t.Fatalf("windows = %d, want 4", len(subs))
	}
	for _, s := range subs {
		if s.Width != 8 || s.Height != 8 {
			t.Fatalf("window shape %v", s)
		}
	}
	if subs[0].At(0, 0, 0) != im.At(0, 0, 0) {
		t.Error("window content misaligned")
	}
}

func TestFlattenAndImageToVector(t *testing.T) {
	f := Flatten()
	out := f.Apply([][]float64{{1, 2}, {3}}).([]float64)
	if len(out) != 3 || out[2] != 3 {
		t.Errorf("flattened = %v", out)
	}
	im := randomImage(6, 3, 2, 1)
	v := ImageToVector().Apply(im).([]float64)
	if len(v) != 6 {
		t.Errorf("vectorized length = %d", len(v))
	}
	// Must be a copy, not an alias.
	v[0] = 999
	if im.Pix[0] == 999 {
		t.Error("ImageToVector aliases the image")
	}
}

func TestDescriptorPCAEst(t *testing.T) {
	rng := linalg.NewRNG(7)
	items := make([]any, 12)
	for i := range items {
		descs := make([][]float64, 5)
		for j := range descs {
			descs[j] = rng.GaussianVector(8)
		}
		items[i] = descs
	}
	data := engine.FromSlice(items, 2)
	est := &DescriptorPCAEst{Fitter: &fakePCA{}}
	tr := est.Fit(engine.NewContext(0), func() *engine.Collection { return data }, nil)
	out := tr.Apply(items[0]).([][]float64)
	if len(out) != 5 || len(out[0]) != 2 {
		t.Fatalf("projected descriptors %dx%d, want 5x2", len(out), len(out[0]))
	}
	if est.Weight() != 1 {
		t.Errorf("non-iterative inner should give weight 1")
	}
	if opts := est.Options(); opts != nil {
		t.Errorf("non-optimizable inner should give nil options")
	}
}

// TestFlattenedFetchFlattensOncePerInput fits a GMM through
// FlattenedFetch twice: once on a fetch that returns the same collection
// on every pass, once on one that returns a fresh copy each time. Both
// make 1 + Iters fetches; the held input is flattened once and the fresh
// one on every pass, and the fitted models are equal.
func TestFlattenedFetchFlattensOncePerInput(t *testing.T) {
	rng := linalg.NewRNG(8)
	parts := make([][]any, 3)
	for p := range parts {
		for i := 0; i < 6+p; i++ {
			descs := make([][]float64, 4)
			for j := range descs {
				descs[j] = rng.GaussianVector(5)
			}
			parts[p] = append(parts[p], descs)
		}
	}
	held := engine.FromPartitions(parts)
	const iters = 4
	fit := func(fetch core.Fetch) (model *gmm.Model, fetches, flattened int) {
		seen := map[*engine.Collection]bool{}
		counted := func() *engine.Collection { fetches++; return fetch() }
		flat := FlattenedFetch(counted)
		observed := func() *engine.Collection { c := flat(); seen[c] = true; return c }
		post := (&gmm.GMM{K: 3, Iters: iters, Seed: 2}).Fit(engine.NewContext(2), observed, nil)
		return post.(*gmm.PosteriorTransform).Model, fetches, len(seen)
	}
	heldModel, fetches, flattened := fit(func() *engine.Collection { return held })
	if fetches != 1+iters || flattened != 1 {
		t.Errorf("held input: %d fetches, %d flattenings; want %d and 1", fetches, flattened, 1+iters)
	}
	freshModel, fetches, flattened := fit(func() *engine.Collection {
		fresh := make([][]any, len(parts))
		for p := range parts {
			fresh[p] = append([]any(nil), parts[p]...)
		}
		return engine.FromPartitions(fresh)
	})
	if fetches != 1+iters || flattened != 1+iters {
		t.Errorf("fresh input: %d fetches, %d flattenings; want %d of each", fetches, flattened, 1+iters)
	}
	if !reflect.DeepEqual(heldModel, freshModel) {
		t.Error("the model fitted on a held input differs from the one fitted on fresh copies")
	}
}

// fakePCA projects onto the first two coordinates.
type fakePCA struct{}

func (fakePCA) Name() string { return "fake.pca" }
func (fakePCA) Fit(ctx *engine.Context, data core.Fetch, labels core.Fetch) core.TransformOp {
	return core.NewTransform("fake.proj", func(in any) any {
		x := in.([]float64)
		return []float64{x[0], x[1]}
	})
}

// TestFlattenDescriptorsAllocatesOnce: FlattenDescriptors makes the same
// three allocations (the header slice, the partition windows, the
// collection) whatever the descriptor count, and its rows are the
// descriptors themselves, in record order and over the input's
// partition count.
func TestFlattenDescriptorsAllocatesOnce(t *testing.T) {
	sets := func(records, perRecord int) *engine.Collection {
		rng := linalg.NewRNG(3)
		items := make([]any, records)
		for i := range items {
			descs := make([][]float64, perRecord)
			for j := range descs {
				descs[j] = rng.GaussianVector(4)
			}
			items[i] = descs
		}
		return engine.FromSlice(items, 3)
	}
	for _, c := range []*engine.Collection{sets(6, 2), sets(60, 50)} {
		if allocs := testing.AllocsPerRun(10, func() { FlattenDescriptors(c) }); allocs != 3 {
			t.Errorf("flattening %d descriptors: %v allocations, want 3", c.Count(), allocs)
		}
		flat := FlattenDescriptors(c)
		if flat.NumPartitions() != c.NumPartitions() {
			t.Errorf("%d partitions, want %d", flat.NumPartitions(), c.NumPartitions())
		}
		var want [][]float64
		for _, rec := range c.Collect() {
			want = append(want, rec.([][]float64)...)
		}
		r := 0
		for i := 0; i < flat.NumPartitions(); i++ {
			for j := 0; j < flat.Len(i); j++ {
				if &flat.Row(i, j)[0] != &want[r][0] {
					t.Fatalf("row %d is not descriptor %d", r, r)
				}
				r++
			}
		}
		if r != len(want) {
			t.Errorf("%d rows, want %d", r, len(want))
		}
	}
}
