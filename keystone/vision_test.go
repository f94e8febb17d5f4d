package keystone

import (
	"context"
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
// fans the images out across goroutines, each running SIFT and the
// descriptor PCA on its own pooled scratch; every output must still be
// the per-record Transform's, bit for bit.
func TestVisionTransformBatchParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f, hold := fitE2EVision(t, 96, WithWorkers(4))
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
