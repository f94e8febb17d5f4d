package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"keystoneml/internal/engine"
)

// chainFitted builds a fitted pipeline of n cheap float transforms plus a
// two-branch gather, covering every step kind the hot path compiles.
func chainFitted(n int) *Fitted {
	g := NewGraph()
	node := g.Source
	for i := 0; i < n; i++ {
		i := i
		node = g.AddTransform(NewTransform(fmt.Sprintf("add%d", i), func(in any) any {
			x := in.([]float64)
			out := make([]float64, len(x))
			for j, v := range x {
				out[j] = v + float64(i)
			}
			return out
		}), node)
	}
	b2 := g.AddTransform(NewTransform("neg", func(in any) any {
		x := in.([]float64)
		out := make([]float64, len(x))
		for j, v := range x {
			out[j] = -v
		}
		return out
	}), node)
	g.AddGather([]*Node{node, b2})
	return NewFitted(g, map[int]TransformOp{}, engine.NewContext(4))
}

// applyOneViaCollection is the pre-redesign single-record path: wrap the
// record in a one-element Collection and run the batch path. It is the
// oracle TransformOne is pinned to and the baseline BenchmarkTransformOne
// measures the hot path against.
func (f *Fitted) applyOneViaCollection(record any) any {
	out := f.Apply(engine.FromSlice([]any{record}, 1))
	return out.Collect()[0]
}

// TestTransformOneMatchesApply pins the precompiled hot path to the
// Collection oracle on a branching graph.
func TestTransformOneMatchesApply(t *testing.T) {
	f := chainFitted(6)
	rec := []float64{1, 2, 3}
	want := f.applyOneViaCollection(rec).([]float64)
	got := f.TransformOne(rec).([]float64)
	if len(want) != len(got) {
		t.Fatalf("dims differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("dim %d: %g vs %g", i, want[i], got[i])
		}
	}
}

// TestTransformBatchMatchesApply pins both batch paths (sequential
// below the fan-out threshold, engine-fanned above it — the fitted
// context has Parallelism 4 regardless of host cores) to the oracle.
func TestTransformBatchMatchesApply(t *testing.T) {
	f := chainFitted(6)
	for _, n := range []int{8, 200} {
		recs := make([]any, n)
		for i := range recs {
			recs[i] = []float64{float64(i), float64(2 * i)}
		}
		want := f.Apply(engine.FromSlice(recs, 3)).Collect()
		got, err := f.TransformBatch(context.Background(), recs)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range want {
			w, g := want[i].([]float64), got[i].([]float64)
			for j := range w {
				if w[j] != g[j] {
					t.Fatalf("n=%d record %d dim %d: %g vs %g", n, i, j, w[j], g[j])
				}
			}
		}
	}
}

// TestTransformBatchCancel: a context canceled mid-batch aborts both the
// serial path (which polls every 32 records) and the fanned-out path
// (n >= batchParallelMin) with the context's own error and no output.
func TestTransformBatchCancel(t *testing.T) {
	for _, n := range []int{60, 200} {
		ctx, cancel := context.WithCancel(context.Background())
		g := NewGraph()
		g.AddTransform(NewTransform("cancel", func(in any) any { cancel(); return in }), g.Source)
		f := NewFitted(g, map[int]TransformOp{}, engine.NewContext(4))
		recs := make([]any, n)
		for i := range recs {
			recs[i] = []float64{float64(i)}
		}
		out, err := f.TransformBatch(ctx, recs)
		if err != ctx.Err() || out != nil {
			t.Errorf("n=%d: got %d outputs, err %v; want none and %v", n, len(out), err, ctx.Err())
		}
	}
}

// TestTransformOneConcurrent is the core-level race check: one Fitted,
// many goroutines, no shared mutable state.
func TestTransformOneConcurrent(t *testing.T) {
	f := chainFitted(5)
	want := f.TransformOne([]float64{2}).([]float64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got := f.TransformOne([]float64{2}).([]float64)
				for j := range want {
					if got[j] != want[j] {
						t.Errorf("concurrent TransformOne diverged")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkTransformOne compares the single-record serving hot path
// against the historical wrap-in-a-one-element-Collection baseline
// (applyOneViaCollection). The acceptance bar for the serving
// redesign is hotpath >= 3x faster.
func BenchmarkTransformOne(b *testing.B) {
	f := chainFitted(8)
	rec := []float64{1, 2, 3, 4}
	b.Run("hotpath", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.TransformOne(rec)
		}
	})
	b.Run("collection-baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.applyOneViaCollection(rec)
		}
	})
}
