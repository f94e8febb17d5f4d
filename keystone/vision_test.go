package keystone

import (
	"context"
	"slices"
	"testing"
)

// TestCustomVisionDAGFromPrimitives proves the exported vision wrappers
// compose into a trainable custom DAG (the façade-coverage item): a
// pooled, whitened pixel pipeline fit end-to-end on synthetic images,
// serving multi-class predictions.
func TestCustomVisionDAGFromPrimitives(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const classes = 3
	train := SyntheticImages(36, 16, 3, classes, 1)
	test := SyntheticImages(6, 16, 3, classes, 2)

	p := Input[*Image]()
	gray := Then(p, Grayscale())
	pooled := Then(gray, Pooling(2))
	vec := Then(pooled, ImageToVector())
	white := ThenEstimator(vec, ZCAWhitening(0.1))
	full := ThenEstimator(white, LinearSolver(8))

	f, err := full.Fit(context.Background(), train.Records, train.Labels, quickOpts()...)
	if err != nil {
		t.Fatalf("fit custom vision DAG: %v", err)
	}
	for _, rec := range test.Records {
		scores, err := f.Transform(context.Background(), rec)
		if err != nil {
			t.Fatalf("transform: %v", err)
		}
		if len(scores) != classes {
			t.Fatalf("scores have %d classes, want %d", len(scores), classes)
		}
	}
	outs, err := f.TransformBatch(context.Background(), test.Records)
	if err != nil {
		t.Fatalf("transform batch: %v", err)
	}
	if len(outs) != len(test.Records) {
		t.Fatalf("batch returned %d outputs, want %d", len(outs), len(test.Records))
	}
}

// fitE2EVision fits the vision pipeline at the e2e vision-dag shape
// (48x48 colour images, 4 classes, 12 PCA dimensions, 6 Gaussians, the
// LCS branch) on 60 training images, and returns it with n holdout
// images.
func fitE2EVision(tb testing.TB, n int, opts ...Option) (*Fitted[*Image, []float64], []*Image) {
	tb.Helper()
	train := SyntheticImages(60, 48, 3, 4, 1)
	hold := SyntheticImages(n, 48, 3, 4, 2)
	p := VisionPipeline(VisionConfig{PCADims: 12, GMMComponents: 6, SampleDescs: 30, Seed: 9, Iterations: 20, WithLCS: true})
	f, err := p.Fit(context.Background(), train.Records, train.Labels, append(quickOpts(), opts...)...)
	if err != nil {
		tb.Fatalf("fit: %v", err)
	}
	return f, hold.Records
}

// TestVisionTransformBatchParallel: with four workers TransformBatch
// fans the images out across goroutines, each running SIFT (fused with
// the Grayscale feeding it) and the descriptor PCA on its own pooled
// scratch; every output must still be the per-record Transform's, bit
// for bit.
func TestVisionTransformBatchParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f, hold := fitE2EVision(t, 96, WithWorkers(4))
	if run := f.inner.RunNames(); !slices.Contains(run, "image.grayscale+image.sift") || slices.Contains(run, "image.grayscale") {
		t.Fatalf("the run form did not fuse Grayscale into SIFT: it runs %q", run)
	}
	for round := 0; round < 3; round++ {
		got, err := f.TransformBatch(context.Background(), hold)
		if err != nil {
			t.Fatal(err)
		}
		for i, im := range hold {
			want, err := f.Transform(context.Background(), im)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(want, got[i]) {
				t.Fatalf("round %d image %d: batch %v, one %v", round, i, got[i], want)
			}
		}
	}
}

// visionTransformAllocs is the measured allocation count of one
// e2e-shaped vision record through Transform. Every step allocates its
// output, once per record and not once per descriptor: a descriptor set
// is a slice and one backing array, the Fisher encoder adds one
// posterior vector, and each result crosses the operator interface in a
// box.
const visionTransformAllocs = 37

// TestVisionTransformAllocs: the fit, its profile included, runs
// Grayscale fused into SIFT, while the artifact records both steps; the
// fitted pipeline and the one decoded from that artifact, which fuses
// again when it is compiled, predict bit for bit alike within
// visionTransformAllocs. The race detector drops pooled scratch at
// random, so under it the budget is not checked.
func TestVisionTransformAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f, hold := fitE2EVision(t, 2)
	var ran []string
	for _, r := range f.TrainReport() {
		ran = append(ran, r.Name)
	}
	if !slices.Contains(ran, "image.grayscale+image.sift") || slices.Contains(ran, "image.grayscale") {
		t.Errorf("the fit did not fuse Grayscale into SIFT: it ran %q", ran)
	}
	steps, err := f.inner.StepRecords()
	if err != nil {
		t.Fatal(err)
	}
	var persisted []string
	for _, r := range steps {
		persisted = append(persisted, r.Name)
	}
	if !slices.Contains(persisted, "image.grayscale") || !slices.Contains(persisted, "image.sift") {
		t.Errorf("the artifact lost an unfused step: it records %q", persisted)
	}
	enc, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode[*Image, []float64](enc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, g := range map[string]*Fitted[*Image, []float64]{"fitted": f, "decoded": decoded} {
		want, _ := f.Transform(ctx, hold[1])
		if got, err := g.Transform(ctx, hold[1]); err != nil || !sameBits(got, want) {
			t.Fatalf("%s: scores %v (%v), want %v", name, got, err, want)
		}
		if raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(20, func() { _, _ = g.Transform(ctx, hold[0]) }); allocs > visionTransformAllocs {
			t.Errorf("%s: %.0f allocations per record, budget %d", name, allocs, visionTransformAllocs)
		}
	}
}

var visionSink any

// BenchmarkTransformBatchVision is the before/after row for the shared
// dense SIFT and the one-GEMM descriptor PCA: 250 e2e-shaped holdout
// images through TransformBatch (run with -benchmem).
func BenchmarkTransformBatchVision(b *testing.B) {
	f, hold := fitE2EVision(b, 250)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := f.TransformBatch(ctx, hold)
		if err != nil {
			b.Fatal(err)
		}
		visionSink = out
	}
	b.ReportMetric(float64(b.N*len(hold))/b.Elapsed().Seconds(), "rec/s")
}

// BenchmarkFitVision is vision-dag's fit at the benchmark's scale: 1 000
// synthetic 48x48 colour images through the e2e vision pipeline with
// default options. B/op and allocs/op are the fit's fit_alloc_mb and
// mallocs:
//
//	GOMAXPROCS=1 go test -run '^$' -bench FitVision -benchmem ./keystone
func BenchmarkFitVision(b *testing.B) {
	train := SyntheticImages(1000, 48, 3, 4, 1)
	p := VisionPipeline(VisionConfig{PCADims: 12, GMMComponents: 6, SampleDescs: 30, Seed: 9, Iterations: 20, WithLCS: true})
	ctx := context.Background()
	if _, err := p.Fit(ctx, train.Records, train.Labels); err != nil {
		b.Fatal(err) // warm-up: the first fit also pays the kernel probes
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := p.Fit(ctx, train.Records, train.Labels)
		if err != nil {
			b.Fatal(err)
		}
		visionSink = f
	}
}

// TestSIFTDescriptorDAGFromPrimitives exercises the descriptor-set
// wrappers (SIFT, sampling, flattening) in a second custom DAG shape.
func TestSIFTDescriptorDAGFromPrimitives(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const classes = 2
	train := SyntheticImages(24, 24, 1, classes, 3)

	p := Input[*Image]()
	gray := Then(p, Grayscale())
	sift := Then(gray, SIFT(SIFTParams{}))
	sampled := Then(sift, SampleDescriptors(4, 7))
	flat := Then(sampled, FlattenDescriptors())
	full := ThenEstimator(flat, LinearSolver(6))

	f, err := full.Fit(context.Background(), train.Records, train.Labels, quickOpts()...)
	if err != nil {
		t.Fatalf("fit SIFT DAG: %v", err)
	}
	scores, err := f.Transform(context.Background(), train.Records[0])
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	if len(scores) != classes {
		t.Fatalf("scores have %d classes, want %d", len(scores), classes)
	}

	// LCS and PatchExtract/SymmetricRectify compose the same way; prove
	// they at least build and apply per record through an unfitted chain.
	lcs := Then(p, LCS(6, 8))
	lcsFlat := Then(lcs, FlattenDescriptors())
	if lcsFlat == nil {
		t.Fatal("LCS chain failed to build")
	}
	patches := Then(p, PatchExtract(6, 6))
	patchFlat := Then(patches, FlattenDescriptors())
	rect := Then(patchFlat, SymmetricRectify(0.25))
	if rect == nil {
		t.Fatal("patch chain failed to build")
	}
}
