package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"keystoneml/keystone"
)

// snap builds a window snapshot for the model-based tuner tests.
func snap(p95 time.Duration, occ float64, samples int) keystone.LatencySnapshot {
	return keystone.LatencySnapshot{Samples: samples, Batches: samples, P50: p95 / 2, P95: p95, MeanOccupancy: occ}
}

// TestTunerConvergesDelayBound models the delay-bound regime: observed
// p95 tracks the assembly window (plus 2ms of execution). From a 50ms
// window against a 10ms target the tuner must converge below target and
// stay there, without undershooting the floor.
func TestTunerConvergesDelayBound(t *testing.T) {
	tuner := NewTuner(SLO{TargetP95: 10 * time.Millisecond})
	batch, delay := 32, 50*time.Millisecond
	const exec = 2 * time.Millisecond
	converged := -1
	for i := 0; i < 40; i++ {
		batch, delay = tuner.Step(snap(delay+exec, 0.3, 64), batch, delay)
		if delay+exec <= 10*time.Millisecond && converged < 0 {
			converged = i
		}
	}
	if converged < 0 {
		t.Fatalf("never converged under the 10ms target; final delay %v", delay)
	}
	if converged > 15 {
		t.Errorf("took %d steps to converge, want multiplicative-decrease speed", converged)
	}
	if delay < tuner.Config().MinDelay {
		t.Errorf("delay %v fell below the floor %v", delay, tuner.Config().MinDelay)
	}
	// Steady state: the modeled p95 must stay under target forever after.
	for i := 0; i < 20; i++ {
		batch, delay = tuner.Step(snap(delay+exec, 0.3, 64), batch, delay)
		if delay+exec > 10*time.Millisecond {
			t.Fatalf("oscillated back over target at step %d (delay %v)", i, delay)
		}
	}
}

// TestTunerGrowsBatchWhenThroughputBound: over the SLO with batches
// filling to the brim, the tuner must grow maxBatch (amortization) while
// cutting the window, and respect the ceiling.
func TestTunerGrowsBatchWhenThroughputBound(t *testing.T) {
	tuner := NewTuner(SLO{TargetP95: 10 * time.Millisecond, MaxBatch: 128})
	batch, delay := 16, 5*time.Millisecond
	for i := 0; i < 10; i++ {
		batch, delay = tuner.Step(snap(40*time.Millisecond, 1.0, 64), batch, delay)
	}
	if batch != 128 {
		t.Errorf("throughput-bound batch = %d, want growth to the 128 cap", batch)
	}
	if delay != tuner.Config().MinDelay {
		t.Errorf("throughput-bound delay = %v, want decay to the floor %v", delay, tuner.Config().MinDelay)
	}
}

// TestTunerSpendsHeadroom: comfortably under target, the window grows
// (bounded) so batching amortizes harder; near-empty batches shrink the
// batch limit toward MinBatch.
func TestTunerSpendsHeadroom(t *testing.T) {
	tuner := NewTuner(SLO{TargetP95: 50 * time.Millisecond, MaxDelay: 20 * time.Millisecond})
	batch, delay := 32, time.Millisecond
	for i := 0; i < 60; i++ {
		batch, delay = tuner.Step(snap(2*time.Millisecond, 0.1, 64), batch, delay)
	}
	if delay != 20*time.Millisecond {
		t.Errorf("headroom delay = %v, want growth to the 20ms cap", delay)
	}
	if batch != tuner.Config().MinBatch {
		t.Errorf("near-empty batches kept batch = %d, want decay to %d", batch, tuner.Config().MinBatch)
	}
}

// snapT is snap with an observed throughput, for the multi-objective
// tests.
func snapT(p95 time.Duration, occ float64, samples int, rps float64) keystone.LatencySnapshot {
	s := snap(p95, occ, samples)
	s.Throughput = rps
	return s
}

// TestTunerThroughputFloorBlocksWindowCollapse: over the p95 target but
// under the throughput floor, the tuner must not collapse the window the
// way the single-objective policy does — it grows the batch to win the
// throughput back and trims the window only gently.
func TestTunerThroughputFloorBlocksWindowCollapse(t *testing.T) {
	single := NewTuner(SLO{TargetP95: 10 * time.Millisecond})
	multi := NewTuner(SLO{TargetP95: 10 * time.Millisecond, ThroughputFloor: 500})

	over := snapT(25*time.Millisecond, 0.6, 64, 200) // p95 2.5x target, rate under floor
	sBatch, sDelay := single.Step(over, 16, 20*time.Millisecond)
	mBatch, mDelay := multi.Step(over, 16, 20*time.Millisecond)

	if sDelay != 12*time.Millisecond { // 0.6x: the single-objective cut
		t.Fatalf("single-objective delay = %v, want 12ms", sDelay)
	}
	if mDelay < 17*time.Millisecond { // 0.9x: only a gentle trim under the floor
		t.Errorf("floor-violated delay = %v; the window collapsed despite throughput starvation", mDelay)
	}
	if mBatch <= sBatch {
		t.Errorf("floor-violated batch = %d (single-objective %d); want batch growth to recover throughput", mBatch, sBatch)
	}

	// Starvation lowers the occupancy bar for the doubling; it must not
	// stack a second doubling when occupancy alone already triggers one.
	full := snapT(25*time.Millisecond, 0.95, 64, 200)
	b, _ := multi.Step(full, 16, 20*time.Millisecond)
	if b != 32 {
		t.Errorf("starved + occupancy-full batch = %d after one step from 16, want a single doubling to 32", b)
	}
}

// TestTunerFloorGrowsBatchInBand: inside the p95 band (no violation, no
// big headroom) with throughput under the floor and real demand, the
// tuner grows the batch without touching the window.
func TestTunerFloorGrowsBatchInBand(t *testing.T) {
	tuner := NewTuner(SLO{TargetP95: 10 * time.Millisecond, ThroughputFloor: 500})
	inBand := snapT(9*time.Millisecond, 0.8, 64, 300)
	batch, delay := tuner.Step(inBand, 16, 5*time.Millisecond)
	if batch <= 16 {
		t.Errorf("in-band starved batch = %d, want growth", batch)
	}
	if delay != 5*time.Millisecond {
		t.Errorf("in-band starved delay = %v, want unchanged 5ms", delay)
	}
	// Same snapshot with a healthy rate: no action inside the band.
	batch, delay = tuner.Step(snapT(9*time.Millisecond, 0.8, 64, 900), 16, 5*time.Millisecond)
	if batch != 16 || delay != 5*time.Millisecond {
		t.Errorf("in-band healthy step changed limits to (%d, %v)", batch, delay)
	}
}

// TestTunerFloorKeepsNearEmptyBatches: the headroom regime normally
// shrinks a near-empty batch limit, but under the floor that would give
// up capacity — the tuner must hold it.
func TestTunerFloorKeepsNearEmptyBatches(t *testing.T) {
	tuner := NewTuner(SLO{TargetP95: 50 * time.Millisecond, ThroughputFloor: 500})
	batch, _ := tuner.Step(snapT(2*time.Millisecond, 0.1, 64, 100), 32, time.Millisecond)
	if batch != 32 {
		t.Errorf("starved near-empty batch = %d, want held at 32", batch)
	}
}

// TestTunerHoldsWithoutEvidence: below MinSamples the tuner must not act.
func TestTunerHoldsWithoutEvidence(t *testing.T) {
	tuner := NewTuner(SLO{TargetP95: 10 * time.Millisecond})
	batch, delay := tuner.Step(snap(time.Hour, 1.0, 3), 32, 2*time.Millisecond)
	if batch != 32 || delay != 2*time.Millisecond {
		t.Errorf("tuner acted on %d samples: (%d, %v)", 3, batch, delay)
	}
}

// TestAutotunerLiveConvergence drives a real route whose batcher starts
// with a hostile 80ms assembly window against a 15ms p95 SLO, under
// concurrent load. The tuner must pull the window down by at least 4x
// within a second of traffic — the online half of the acceptance
// criterion (the Tuner* tests above pin the offline half).
func TestAutotunerLiveConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := keystone.Input[float64]()
	out := keystone.Then(p, keystone.NewOp("ms", func(x float64) []float64 {
		time.Sleep(time.Millisecond)
		return []float64{1, x}
	}))
	f, err := out.Fit(context.Background(), []float64{1}, nil, keystone.WithOptimizerLevel(keystone.LevelNone))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	defer s.Close()
	rt, err := Register(s, "tuned", f, JSONCodec[float64, []float64]{},
		WithBatchLimits(8, 80*time.Millisecond),
		WithSLO(SLO{TargetP95: 15 * time.Millisecond, Interval: 20 * time.Millisecond, MinSamples: 4}))
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if _, err := rt.Predict(context.Background(), float64(i)); err != nil {
					t.Errorf("predict: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(time.Second)
	stop.Store(true)
	wg.Wait()

	_, delay := rt.limits()
	if delay > 20*time.Millisecond {
		t.Fatalf("autotuner left maxDelay at %v after 1s against a 15ms SLO (started at 80ms)", delay)
	}
	t.Logf("converged maxDelay %v from 80ms against 15ms SLO", delay)
}
