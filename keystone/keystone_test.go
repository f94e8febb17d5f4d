package keystone

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"keystoneml/internal/engine"
)

// served erases the I/O type parameters so the five pipelines can share
// one equivalence harness.
type served interface {
	oracle(recs []any) []any
	hot(ctx context.Context, recs []any) ([]any, error)
	hotOne(ctx context.Context, rec any) (any, error)
	testRecords() []any
}

type servedPipeline[I any] struct {
	f    *Fitted[I, []float64]
	test []I
}

func (s *servedPipeline[I]) testRecords() []any {
	out := make([]any, len(s.test))
	for i, r := range s.test {
		out[i] = r
	}
	return out
}

func (s *servedPipeline[I]) oracle(recs []any) []any {
	// The batch oracle: the partitioned Collection path through
	// Fitted.Apply, exactly what training-time evaluation uses.
	return s.f.inner.Apply(engine.FromSlice(recs, 3)).Collect()
}

func (s *servedPipeline[I]) hot(ctx context.Context, recs []any) ([]any, error) {
	typed := make([]I, len(recs))
	for i, r := range recs {
		typed[i] = r.(I)
	}
	outs, err := s.f.TransformBatch(ctx, typed)
	if err != nil {
		return nil, err
	}
	boxed := make([]any, len(outs))
	for i, o := range outs {
		boxed[i] = o
	}
	return boxed, nil
}

func (s *servedPipeline[I]) hotOne(ctx context.Context, rec any) (any, error) {
	return s.f.Transform(ctx, rec.(I))
}

func quickOpts() []Option {
	return []Option{
		WithOptimizerLevel(LevelPipeline),
	}
}

func fitText(t *testing.T) served {
	t.Helper()
	train := SyntheticReviews(160, 1)
	test := SyntheticReviews(24, 2)
	p := TextPipeline(TextConfig{NumFeatures: 800, Iterations: 8})
	f, err := p.Fit(context.Background(), train.Records, train.Labels, quickOpts()...)
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	return &servedPipeline[string]{f: f, test: test.Records}
}

func fitSpeech(t *testing.T) served {
	t.Helper()
	train := SyntheticDenseVectors(120, 16, 6, 3)
	test := SyntheticDenseVectors(20, 16, 6, 4)
	p := SpeechPipeline(SpeechConfig{InputDim: 16, NumFeatures: 32, Gamma: 0.02, Seed: 11, Iterations: 6})
	f, err := p.Fit(context.Background(), train.Records, train.Labels, quickOpts()...)
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	return &servedPipeline[[]float64]{f: f, test: test.Records}
}

func fitVision(t *testing.T, withLCS bool) served {
	t.Helper()
	train := SyntheticImages(14, 48, 3, 4, 40)
	test := SyntheticImages(6, 48, 3, 4, 41)
	p := VisionPipeline(VisionConfig{
		PCADims: 8, GMMComponents: 6, SampleDescs: 15, Seed: 9, Iterations: 6, WithLCS: withLCS,
	})
	f, err := p.Fit(context.Background(), train.Records, train.Labels, quickOpts()...)
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	return &servedPipeline[*Image]{f: f, test: test.Records}
}

func fitCifar(t *testing.T) served {
	t.Helper()
	train := SyntheticImages(20, 32, 3, 4, 21)
	test := SyntheticImages(10, 32, 3, 4, 22)
	p := CifarPipeline(CifarConfig{NumFilters: 6, Seed: 23, Iterations: 6})
	f, err := p.Fit(context.Background(), train.Records, train.Labels, quickOpts()...)
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	return &servedPipeline[*Image]{f: f, test: test.Records}
}

// fitCase is one evaluation pipeline fit at test scale through the
// public API.
type fitCase struct {
	name string
	fit  func(t *testing.T) served
}

func evaluationPipelines() []fitCase {
	return []fitCase{
		{"Amazon", func(t *testing.T) served { return fitText(t) }},
		{"TIMIT", func(t *testing.T) served { return fitSpeech(t) }},
		{"VOC", func(t *testing.T) served { return fitVision(t, false) }},
		{"VOC-LCS", func(t *testing.T) served { return fitVision(t, true) }},
		{"CIFAR-10", func(t *testing.T) served { return fitCifar(t) }},
	}
}

func assertSameScores(t *testing.T, name string, want, got []any) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: record counts differ: %d vs %d", name, len(want), len(got))
	}
	for i := range want {
		w, okW := want[i].([]float64)
		g, okG := got[i].([]float64)
		if !okW || !okG {
			t.Fatalf("%s: record %d types differ: %T vs %T", name, i, want[i], got[i])
		}
		if len(w) != len(g) {
			t.Fatalf("%s: record %d dims differ: %d vs %d", name, i, len(w), len(g))
		}
		for j := range w {
			if w[j] != g[j] {
				t.Fatalf("%s: record %d dim %d differs: %g vs %g", name, i, j, w[j], g[j])
			}
		}
	}
}

// TestTransformEquivalence pins the serving hot path to the batch
// oracle: for every evaluation pipeline, Transform and TransformBatch
// must produce bit-identical scores to Fitted.Apply's
// Collection/partition path, on batches both below and above the
// parallel fan-out threshold.
func TestTransformEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, c := range evaluationPipelines() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			s := c.fit(t)
			recs := s.testRecords()
			want := s.oracle(recs)

			got, err := s.hot(context.Background(), recs)
			if err != nil {
				t.Fatalf("TransformBatch: %v", err)
			}
			assertSameScores(t, c.name+"/batch", want, got)

			for i, r := range recs {
				one, err := s.hotOne(context.Background(), r)
				if err != nil {
					t.Fatalf("Transform record %d: %v", i, err)
				}
				assertSameScores(t, fmt.Sprintf("%s/one[%d]", c.name, i), want[i:i+1], []any{one})
			}

			// A batch above the parallel fan-out threshold takes the
			// engine-worker path; outputs must not change.
			big := make([]any, 0, 80)
			for len(big) < 80 {
				big = append(big, recs[len(big)%len(recs)])
			}
			wantBig := s.oracle(big)
			gotBig, err := s.hot(context.Background(), big)
			if err != nil {
				t.Fatalf("TransformBatch(big): %v", err)
			}
			assertSameScores(t, c.name+"/big", wantBig, gotBig)
		})
	}
}

// TestTransformConcurrent hammers one Fitted with concurrent Transform
// and TransformBatch callers; run under -race this is the
// concurrency-safety contract of the serving artifact.
func TestTransformConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := fitText(t)
	recs := s.testRecords()
	want := s.oracle(recs)

	const goroutines = 8
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gr := 0; gr < goroutines; gr++ {
		wg.Add(1)
		go func(gr int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (gr + it) % len(recs)
				if gr%2 == 0 {
					got, err := s.hotOne(context.Background(), recs[i])
					if err != nil {
						errs <- err
						return
					}
					w := want[i].([]float64)
					g := got.([]float64)
					for j := range w {
						if w[j] != g[j] {
							errs <- fmt.Errorf("goroutine %d: record %d dim %d: %g vs %g", gr, i, j, w[j], g[j])
							return
						}
					}
				} else {
					got, err := s.hot(context.Background(), recs)
					if err != nil {
						errs <- err
						return
					}
					if len(got) != len(want) {
						errs <- fmt.Errorf("goroutine %d: batch size %d vs %d", gr, len(got), len(want))
						return
					}
				}
			}
		}(gr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFitCancellation cancels a Fit mid-flight: the iterative solver
// refetches its input every pass, and both the fetch path and the
// partition dispatch poll the context, so the call must return promptly
// with the context error instead of running its full iteration budget.
func TestFitCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	train := SyntheticDenseVectors(600, 48, 8, 5)
	p := SpeechPipeline(SpeechConfig{InputDim: 48, NumFeatures: 512, Gamma: 0.02, Seed: 7, Iterations: 500})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := p.Fit(ctx, train.Records, train.Labels, quickOpts()...)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Fit returned nil error after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in chain, got %v", err)
	}
	// 500 L-BFGS passes over 600x512 features would take far longer than
	// this; a prompt return proves the fit unwound mid-pass.
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v, want prompt unwind", elapsed)
	}
}

// TestFitDeadline exercises the deadline flavour of cancellation.
func TestFitDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	train := SyntheticDenseVectors(600, 48, 8, 5)
	p := SpeechPipeline(SpeechConfig{InputDim: 48, NumFeatures: 512, Gamma: 0.02, Seed: 7, Iterations: 500})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := p.Fit(ctx, train.Records, train.Labels, quickOpts()...)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded in chain, got %v", err)
	}
}

// TestFitPreCanceled: a context canceled before Fit starts fails fast
// without training anything.
func TestFitPreCanceled(t *testing.T) {
	train := SyntheticReviews(40, 1)
	p := TextPipeline(TextConfig{NumFeatures: 100, Iterations: 3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := p.Fit(ctx, train.Records, train.Labels, quickOpts()...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("pre-canceled Fit took %v", d)
	}
}

// TestPipelineReusableAfterFit: Fit must not mutate the pipeline —
// fitting the same Pipeline value twice with the same data must produce
// identical predictions (the DAG is cloned per Fit, so CSE rewrites and
// operator substitution cannot leak between calls).
func TestPipelineReusableAfterFit(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	train := SyntheticReviews(120, 1)
	test := SyntheticReviews(16, 2)
	p := TextPipeline(TextConfig{NumFeatures: 500, Iterations: 6})

	f1, err := p.Fit(context.Background(), train.Records, train.Labels, quickOpts()...)
	if err != nil {
		t.Fatalf("first fit: %v", err)
	}
	f2, err := p.Fit(context.Background(), train.Records, train.Labels, quickOpts()...)
	if err != nil {
		t.Fatalf("second fit: %v", err)
	}
	o1, err := f1.TransformBatch(context.Background(), test.Records)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := f2.TransformBatch(context.Background(), test.Records)
	if err != nil {
		t.Fatal(err)
	}
	for i := range o1 {
		for j := range o1[i] {
			if o1[i][j] != o2[i][j] {
				t.Fatalf("refit diverged at record %d dim %d: %g vs %g", i, j, o1[i][j], o2[i][j])
			}
		}
	}
}

// TestFitValidation covers the argument errors.
func TestFitValidation(t *testing.T) {
	p := TextPipeline(TextConfig{NumFeatures: 50, Iterations: 2})
	if _, err := p.Fit(context.Background(), nil, nil); err == nil {
		t.Fatal("want error for empty training set")
	}
	if _, err := p.Fit(context.Background(), []string{"a", "b"}, [][]float64{{1, 0}}); err == nil {
		t.Fatal("want error for record/label count mismatch")
	}
	// A supervised pipeline fit without labels must error, not panic.
	if _, err := p.Fit(context.Background(), []string{"a", "b"}, nil); err == nil {
		t.Fatal("want error for supervised pipeline with nil labels")
	}
}

// TestFitRecoversOperatorPanic: a panicking user operator surfaces as an
// error from the public Fit, not a process crash.
func TestFitRecoversOperatorPanic(t *testing.T) {
	boom := NewOp("boom", func(x []float64) []float64 { panic("operator bug") })
	p := Input[[]float64]().Then(boom)
	full := ThenEstimator(p, LinearSolver(2))
	train := SyntheticDenseVectors(20, 4, 2, 1)
	_, err := full.Fit(context.Background(), train.Records, train.Labels, quickOpts()...)
	if err == nil {
		t.Fatal("want error from panicking operator")
	}
}

// TestBuilderAPI exercises the chainable builder end to end with custom
// ops: a hand-built two-branch gathered pipeline through Fit and
// Transform.
func TestBuilderAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	scale := func(name string, k float64) Op[[]float64, []float64] {
		return NewOp(name, func(x []float64) []float64 {
			out := make([]float64, len(x))
			for i, v := range x {
				out[i] = k * v
			}
			return out
		})
	}
	in := Input[[]float64]()
	b1 := Then(in, scale("x2", 2))
	b2 := Then(in, scale("x3", 3))
	p := ThenEstimator(Gather(b1, b2), LinearSolver(5))

	train := SyntheticDenseVectors(80, 8, 3, 9)
	f, err := p.Fit(context.Background(), train.Records, train.Labels, quickOpts()...)
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	out, err := f.Transform(context.Background(), train.Records[0])
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	if len(out) != 3 {
		t.Fatalf("want 3 class scores, got %d", len(out))
	}
	if f.Info().CSEMerged == 0 {
		t.Log("note: CSE merged nothing (branches differ); builder path still OK")
	}
}
