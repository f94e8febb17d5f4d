package tune

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// halveConfig is a search config carrying only what halve reads.
func halveConfig(eta, minSample, parallelism int) config[int, int] {
	return config[int, int]{eta: eta, minSample: minSample, parallelism: parallelism}
}

// TestHalveBoundsConcurrentFits pins the parallelism contract: at most
// parallelism candidates fit at once, and the worker budget is divided
// among the concurrent fits so nested parallelism cannot oversubscribe
// (4 candidates under budget 2 -> 2 at a time, 1 worker each; 2
// candidates under budget 8 -> both at once, 4 workers each).
func TestHalveBoundsConcurrentFits(t *testing.T) {
	cases := []struct {
		cands, parallelism, wantWorkers int
	}{
		{cands: 4, parallelism: 2, wantWorkers: 1},
		{cands: 2, parallelism: 8, wantWorkers: 4},
		{cands: 3, parallelism: 3, wantWorkers: 1},
	}
	for _, tc := range cases {
		var cur, peak int64
		fit := func(ctx context.Context, r round, cand, workers int) (float64, error) {
			if workers != tc.wantWorkers && r.index == 0 {
				t.Errorf("cands=%d P=%d: fit got %d workers, want %d",
					tc.cands, tc.parallelism, workers, tc.wantWorkers)
			}
			n := atomic.AddInt64(&cur, 1)
			for {
				p := atomic.LoadInt64(&peak)
				if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond) // let peers overlap
			atomic.AddInt64(&cur, -1)
			return float64(cand), nil
		}
		cfg := halveConfig(2, 64, tc.parallelism)
		if _, err := cfg.halve(context.Background(), tc.cands, 64, nil, fit); err != nil {
			t.Fatalf("cands=%d P=%d: %v", tc.cands, tc.parallelism, err)
		}
		if got := atomic.LoadInt64(&peak); got > int64(tc.parallelism) {
			t.Errorf("cands=%d P=%d: %d fits ran concurrently", tc.cands, tc.parallelism, got)
		}
		atomic.StoreInt64(&peak, 0)
	}
}

// TestHalveCancelBetweenRounds cancels after round 0 completes: round 1
// must dispatch no fits and the context error must surface.
func TestHalveCancelBetweenRounds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fits int64
	fit := func(ctx context.Context, r round, cand, workers int) (float64, error) {
		if r.index > 0 {
			t.Errorf("candidate %d fitted in round %d after cancellation", cand, r.index)
		}
		atomic.AddInt64(&fits, 1)
		return float64(cand), nil
	}
	roundStart := func(r round) {
		if r.index == 1 {
			cancel()
		}
	}
	// 4 candidates over 256 records from minSample 64 would run 3 rounds.
	_, err := halveConfig(2, 64, 2).halve(ctx, 4, 256, roundStart, fit)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := atomic.LoadInt64(&fits); got != 4 {
		t.Errorf("%d fits ran, want exactly round 0's 4", got)
	}
}

// TestHalveCancelMidFit cancels while fits are in flight: in-flight fits
// observe ctx and unwind, no further candidates dispatch, and halve
// returns only after every dispatched fit has finished (no leaks).
func TestHalveCancelMidFit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{}, 8)
	var running, dispatched int64
	fit := func(ctx context.Context, r round, cand, workers int) (float64, error) {
		atomic.AddInt64(&dispatched, 1)
		atomic.AddInt64(&running, 1)
		defer atomic.AddInt64(&running, -1)
		started <- struct{}{}
		<-ctx.Done() // a long fit observing cooperative cancellation
		return 0, ctx.Err()
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var outcomes []outcome
	var err error
	go func() {
		defer wg.Done()
		outcomes, err = halveConfig(2, 64, 2).halve(ctx, 6, 256, nil, fit)
	}()
	<-started
	<-started // both worker slots occupied mid-fit
	cancel()
	wg.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if outcomes != nil {
		t.Error("canceled search returned partial outcomes")
	}
	if got := atomic.LoadInt64(&running); got != 0 {
		t.Errorf("%d fits still running after halve returned", got)
	}
	if got := atomic.LoadInt64(&dispatched); got > 3 {
		// 2 in flight when canceled; at most one more could slip through
		// the dispatch race before the loop observes ctx.
		t.Errorf("%d fits dispatched after mid-fit cancel, want <= 3", got)
	}
}

// TestHalveRetainsBestCandidate is the property test: whenever candidate
// quality gaps exceed the per-round noise, successive halving must
// return the truly-best candidate first, across candidate counts, eta
// values and noise phases.
func TestHalveRetainsBestCandidate(t *testing.T) {
	for _, numCands := range []int{2, 3, 5, 8, 13} {
		for _, eta := range []int{2, 3} {
			for phase := 0; phase < 3; phase++ {
				best := (numCands*7 + phase) % numCands
				fit := func(ctx context.Context, r round, cand, workers int) (float64, error) {
					// Quality is spaced 0.05 apart with best on top;
					// deterministic per-round "noise" wiggles scores by
					// < 0.02, below the gap.
					quality := 0.9 - 0.05*float64((cand-best+numCands)%numCands)
					noise := 0.02 * float64((cand*31+r.index*17+phase*7)%100) / 100
					return quality + noise, nil
				}
				outcomes, err := halveConfig(eta, 16, 4).halve(context.Background(), numCands, 256, nil, fit)
				if err != nil {
					t.Fatal(err)
				}
				if outcomes[0].index != best {
					t.Errorf("cands=%d eta=%d phase=%d: winner %d, want %d",
						numCands, eta, phase, outcomes[0].index, best)
				}
				if outcomes[0].rounds != len(outcomes[0].scores) {
					t.Errorf("rounds %d != trajectory length %d",
						outcomes[0].rounds, len(outcomes[0].scores))
				}
			}
		}
	}
}
