package keystone

import (
	"context"
	"testing"
)

// TestCacheBudgetEndToEnd poses the paper's §4 problem through the public
// API: the vision pipeline fit under an unlimited cache budget and under
// 5 % of its estimated intermediate state, sequentially and with four
// workers. A budget only changes what is recomputed, never the model: all
// three fits score a holdout bit for bit alike, each budgeted pin set is a
// subset of the unlimited one, and the tight sequential fit recomputes.
func TestCacheBudgetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	unlimited, hold := fitE2EVision(t, 8, WithPartitions(2))
	budget := unlimited.Info().EstimatedStateBytes / 20
	if budget <= 0 {
		t.Fatalf("estimated state %d bytes: no budget to pose", unlimited.Info().EstimatedStateBytes)
	}
	seq, _ := fitE2EVision(t, 8, WithPartitions(2), WithCacheBudget(budget), WithWorkers(1))
	par, _ := fitE2EVision(t, 8, WithPartitions(2), WithCacheBudget(budget), WithWorkers(4))

	ctx := context.Background()
	want, err := unlimited.TransformBatch(ctx, hold)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]*Fitted[*Image, []float64]{"workers=1": seq, "workers=4": par} {
		got, err := f.TransformBatch(ctx, hold)
		if err != nil {
			t.Fatal(err)
		}
		for i := range hold {
			if !sameBits(want[i], got[i]) {
				t.Fatalf("%s image %d: budgeted %v, unlimited %v", name, i, got[i], want[i])
			}
		}
		pinned := map[string]int{}
		for _, n := range unlimited.Info().Cached {
			pinned[n]++
		}
		for _, n := range f.Info().Cached {
			if pinned[n]--; pinned[n] < 0 {
				t.Errorf("%s pins %v, not a subset of the unlimited %v", name, f.Info().Cached, unlimited.Info().Cached)
				break
			}
		}
	}

	t.Logf("pinned: unlimited %v, workers=1 %v, workers=4 %v", unlimited.Info().Cached, seq.Info().Cached, par.Info().Cached)
	recomputed := false
	for _, r := range seq.TrainReport() {
		if r.Kind != "source" && r.Computes > 1 {
			recomputed = true
		}
	}
	if !recomputed {
		t.Errorf("the 5%% budget recomputed nothing: %+v", seq.TrainReport())
	}
}
