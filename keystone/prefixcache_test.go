package keystone

import (
	"context"
	"math"
	"testing"
)

// TestPrefixCacheScopedByPartitions shares one PrefixCache between a
// 2-partition and a 3-partition fit of the same records. Partitioned
// intermediates are not interchangeable across partition counts (the
// solver pairs data and label partitions, and sums per partition), so
// the second fit must not reuse the first's prefix: it must match a
// standalone 3-partition fit bit for bit.
func TestPrefixCacheScopedByPartitions(t *testing.T) {
	ctx := context.Background()
	train := SyntheticDenseVectors(240, 12, 4, 1)
	hold := SyntheticDenseVectors(40, 12, 4, 2)
	build := func() *Pipeline[[]float64, []float64] {
		return SpeechPipeline(SpeechConfig{InputDim: 12, NumFeatures: 32, Seed: 3, Iterations: 3})
	}
	fit := func(parts int, extra ...Option) *Fitted[[]float64, []float64] {
		t.Helper()
		opts := append([]Option{WithOptimizerLevel(LevelNone), WithWorkers(1), WithPartitions(parts)}, extra...)
		f, err := build().Fit(ctx, train.Records, train.Labels, opts...)
		if err != nil {
			t.Fatalf("%d-partition fit: %v", parts, err)
		}
		return f
	}
	pc := NewPrefixCache(0)
	fit(2, WithPrefixCache(pc))
	first := pc.Stats().Computes
	shared := fit(3, WithPrefixCache(pc))
	standalone := fit(3)

	got, err := shared.TransformBatch(ctx, hold.Records)
	if err != nil {
		t.Fatal(err)
	}
	want, err := standalone.TransformBatch(ctx, hold.Records)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("record %d output %d: shared-cache fit %v, standalone %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	if got := pc.Stats().Computes; got != 2*first {
		t.Errorf("prefix computes after both fits = %d, want %d: the 3-partition fit reused the 2-partition fit's prefix", got, 2*first)
	}
}
