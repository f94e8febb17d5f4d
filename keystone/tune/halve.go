package tune

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"time"
)

// round describes one successive-halving round to the fit function.
type round struct {
	index int // 0-based round number
	n     int // training-subset size candidates see this round
}

// fitFunc fits one candidate on a round's training subset and returns
// its holdout score (higher is better). workers is the portion of the
// search's parallelism budget granted to this fit. A fitFunc observing
// ctx done should return ctx.Err() promptly — halve stops dispatching
// and surfaces the error.
type fitFunc func(ctx context.Context, r round, cand, workers int) (float64, error)

// outcome is one candidate's record from a halve run.
type outcome struct {
	index int // position in the caller's candidate list
	// scores holds the score after every round the candidate participated
	// in (scores[r] is round r's); rounds == len(scores).
	scores    []float64
	rounds    int
	trainTime time.Duration
}

// score returns the candidate's final (largest-subset) score, or 0 if it
// never completed a round.
func (o outcome) score() float64 {
	if len(o.scores) == 0 {
		return 0
	}
	return o.scores[len(o.scores)-1]
}

// halve runs successive halving over numCands candidates whose training
// set holds fullN records: every round fits the surviving candidates on
// a subset (minSample records, growing by eta per round), scores them,
// and keeps the top 1/eta, until the survivors have fitted the full set.
// Fits within a round run concurrently, at most parallelism (0 = NumCPU)
// at once, with that worker budget divided evenly among them.
//
// roundStart, if non-nil, runs before each round's fits are dispatched.
// Cancellation is clean at both grains: ctx done between rounds starts
// no further round, and ctx done mid-round stops dispatching, waits for
// in-flight fits to unwind, and returns the context error. The first fit
// error likewise aborts the search.
//
// Outcomes are returned best-first: by rounds survived, then final
// score, then candidate order.
func (c config[I, O]) halve(ctx context.Context, numCands, fullN int, roundStart func(round), fit fitFunc) ([]outcome, error) {
	if numCands == 0 {
		return nil, nil
	}
	outcomes := make([]outcome, numCands)
	alive := make([]int, numCands)
	for i := range outcomes {
		outcomes[i].index = i
		alive[i] = i
	}
	budget := c.parallelism
	if budget <= 0 {
		budget = runtime.NumCPU()
	}
	sampleN := c.minSample
	for index := 0; ; index++ {
		if err := ctx.Err(); err != nil {
			return nil, err // cancel between rounds: no new round starts
		}
		r := round{index: index, n: min(sampleN, fullN)}
		if roundStart != nil {
			roundStart(r)
		}
		conc := min(len(alive), budget)
		perFit := max(1, budget/conc)
		sem := make(chan struct{}, conc)
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		for _, idx := range alive {
			mu.Lock()
			abort := firstErr != nil
			mu.Unlock()
			if abort || ctx.Err() != nil {
				break // mid-round cancel/failure: abandon the rest
			}
			sem <- struct{}{}
			wg.Add(1)
			go func(idx int) {
				defer wg.Done()
				defer func() { <-sem }()
				start := time.Now()
				score, err := fit(ctx, r, idx, perFit)
				mu.Lock()
				defer mu.Unlock()
				outcomes[idx].trainTime += time.Since(start)
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				outcomes[idx].scores = append(outcomes[idx].scores, score)
				outcomes[idx].rounds = index + 1
			}(idx)
		}
		wg.Wait() // no leaked fits: every dispatched fit unwinds here
		if firstErr != nil {
			return nil, firstErr
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sort.SliceStable(alive, func(a, b int) bool {
			return outcomes[alive[a]].score() > outcomes[alive[b]].score()
		})
		if r.n >= fullN {
			break // survivors have seen the full training set
		}
		alive = alive[:max(1, len(alive)/c.eta)]
		sampleN *= c.eta
	}
	sort.SliceStable(outcomes, func(a, b int) bool {
		if outcomes[a].rounds != outcomes[b].rounds {
			return outcomes[a].rounds > outcomes[b].rounds
		}
		return outcomes[a].score() > outcomes[b].score()
	})
	return outcomes, nil
}
