package keystone

import (
	"context"
	"math"
	"testing"

	"keystoneml/internal/cluster"
	"keystoneml/internal/core"
	"keystoneml/internal/linalg"
	"keystoneml/internal/pca"
)

// fitBlockSpeech fits the speech pipeline at the e2e speech-batch shape
// (40 inputs, two 256-feature branches, 8 classes) on a small training
// set, and returns it with 1 500 holdout records.
func fitBlockSpeech(tb testing.TB) (*Fitted[[]float64, []float64], [][]float64) {
	tb.Helper()
	train := SyntheticDenseVectors(400, 40, 8, 1)
	hold := SyntheticDenseVectors(1500, 40, 8, 2)
	p := SpeechPipeline(SpeechConfig{InputDim: 40, NumFeatures: 512, Seed: 7, Iterations: 5})
	f, err := p.Fit(context.Background(), train.Records, train.Labels, quickOpts()...)
	if err != nil {
		tb.Fatalf("fit: %v", err)
	}
	return f, hold.Records
}

// fitBlockPCA fits a bare Input → PCA → linear-solver pipeline, whose
// every operator has a block form, and returns it with 300 holdout
// records.
func fitBlockPCA(tb testing.TB) (*Fitted[[]float64, []float64], [][]float64) {
	tb.Helper()
	train := SyntheticDenseVectors(400, 40, 8, 3)
	hold := SyntheticDenseVectors(300, 40, 8, 4)
	p := Input[[]float64]()
	reduced := ThenEstimator(p, wrapEst[[]float64, []float64](&pca.PCA{K: 12, Seed: 5}, false))
	full := ThenEstimator(reduced, LinearSolver(5))
	f, err := full.Fit(context.Background(), train.Records, train.Labels, quickOpts()...)
	if err != nil {
		tb.Fatalf("fit: %v", err)
	}
	return f, hold.Records
}

// TestBlockBitIdentity pins TransformBatch's block path to Transform,
// record by record and bit by bit (signed zeros included), under every
// kernel dispatch mode, across block boundaries (core's blockRecords is
// 128) and for the artifact-decoded model a server actually runs — on
// the speech pipeline and on a bare PCA pipeline.
func TestBlockBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, c := range []struct {
		name string
		fit  func(testing.TB) (*Fitted[[]float64, []float64], [][]float64)
	}{{"speech", fitBlockSpeech}, {"pca", fitBlockPCA}} {
		t.Run(c.name, func(t *testing.T) {
			fitted, hold := c.fit(t)
			checkBlockBits(t, fitted, hold, []int{1, 2, 63, 64, 65, 127, 128, 129, len(hold)})
		})
	}
}

func checkBlockBits(t *testing.T, fitted *Fitted[[]float64, []float64], hold [][]float64, sizes []int) {
	t.Helper()
	recs, err := fitted.inner.StepRecords()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Op == "" {
			continue
		}
		if op, err := core.DecodeOp(r.Op, r.State); err != nil {
			t.Fatal(err)
		} else if _, ok := op.(core.BlockOp); !ok {
			t.Fatalf("%s has no block form; TransformBatch would not take the block path", r.Name)
		}
	}
	data, err := Encode(fitted)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode[[]float64, []float64](data)
	if err != nil {
		t.Fatal(err)
	}
	defer linalg.SetBackendMode(linalg.Mode())
	for _, mode := range []struct {
		name string
		m    linalg.BackendMode
	}{{"reference", linalg.ModeReference}, {"blocked", linalg.ModeBlocked}, {"auto", linalg.ModeAuto}} {
		linalg.SetBackendMode(mode.m)
		if mode.m == linalg.ModeAuto {
			cluster.InstallKernelCrossover()
		}
		for name, f := range map[string]*Fitted[[]float64, []float64]{"fitted": fitted, "decoded": decoded} {
			for _, n := range sizes {
				got, err := f.TransformBatch(context.Background(), hold[:n])
				if err != nil {
					t.Fatalf("%s/%s n=%d: %v", mode.name, name, n, err)
				}
				for i, rec := range hold[:n] {
					want, err := f.Transform(context.Background(), rec)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(want, got[i]) {
						t.Fatalf("%s/%s n=%d record %d: batch %v, one %v", mode.name, name, n, i, got[i], want)
					}
				}
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

var blockSink any

// BenchmarkTransformBatchSpeech is the before/after row for the block
// path: a 1 500-record speech holdout through TransformBatch ("block")
// against the same records one Transform at a time ("per-record"), the
// path TransformBatch takes for a pipeline without a block form.
func BenchmarkTransformBatchSpeech(b *testing.B) {
	f, hold := fitBlockSpeech(b)
	ctx := context.Background()
	b.Run("block", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := f.TransformBatch(ctx, hold)
			if err != nil {
				b.Fatal(err)
			}
			blockSink = out
		}
		b.ReportMetric(float64(b.N*len(hold))/b.Elapsed().Seconds(), "rec/s")
	})
	b.Run("per-record", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, rec := range hold {
				out, err := f.Transform(ctx, rec)
				if err != nil {
					b.Fatal(err)
				}
				blockSink = out
			}
		}
		b.ReportMetric(float64(b.N*len(hold))/b.Elapsed().Seconds(), "rec/s")
	})
}
