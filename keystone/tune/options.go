package tune

import (
	"context"
	"fmt"

	"keystoneml/keystone"
	"keystoneml/keystone/serve"
)

// Scorer evaluates a fitted candidate on the holdout split and returns
// its score (higher is better).
type Scorer[I, O any] func(ctx context.Context, fitted *keystone.Fitted[I, O], val []I, valLabels [][]float64) (float64, error)

// config is the resolved option set for one Search call.
type config[I, O any] struct {
	eta         int
	minSample   int
	parallelism int
	holdout     float64
	cacheBudget int64
	share       bool
	scorer      Scorer[I, O]
	fitOpts     []keystone.Option
	deploy      func(ctx context.Context, winner *keystone.Fitted[I, O], report *Report) error
}

func defaultConfig[I, O any]() config[I, O] {
	return config[I, O]{
		eta:       2,
		minSample: 64,
		holdout:   0.25,
		share:     true,
		scorer:    accuracyScorer[I, O],
	}
}

// Option configures a Search call; see the With* constructors and
// DeployWinner.
type Option[I, O any] func(*config[I, O])

// WithEta sets the halving rate: each round keeps the top 1/eta of the
// surviving candidates (default 2; values < 2 are treated as 2).
func WithEta[I, O any](eta int) Option[I, O] {
	return func(c *config[I, O]) {
		if eta >= 2 {
			c.eta = eta
		}
	}
}

// WithMinSample sets the first round's training-subset size (default
// 64); each round multiplies it by eta until the full training split is
// used.
func WithMinSample[I, O any](n int) Option[I, O] {
	return func(c *config[I, O]) {
		if n > 0 {
			c.minSample = n
		}
	}
}

// WithParallelism sets the search's total worker budget: at most this
// many candidates fit concurrently, with the budget divided among them
// so nested fits never oversubscribe the machine. 0 (the default) uses
// NumCPU.
func WithParallelism[I, O any](n int) Option[I, O] {
	return func(c *config[I, O]) { c.parallelism = n }
}

// WithHoldout sets the fraction of records held out for scoring
// (default 0.25). The split is deterministic (every k-th record), so
// repeated searches over the same data score on the same holdout.
func WithHoldout[I, O any](frac float64) Option[I, O] {
	return func(c *config[I, O]) { c.holdout = frac }
}

// WithSharing toggles cross-candidate cache sharing (default on).
// Disabling it gives every fit a private cache: the isolated baseline
// sharing is measured against, with the same winner.
func WithSharing[I, O any](enabled bool) Option[I, O] {
	return func(c *config[I, O]) { c.share = enabled }
}

// WithCacheBudget bounds the shared prefix cache to the given bytes per
// round (0, the default, is unlimited).
func WithCacheBudget[I, O any](bytes int64) Option[I, O] {
	return func(c *config[I, O]) { c.cacheBudget = bytes }
}

// WithScorer replaces the default holdout scorer. The default asserts
// the pipeline output to []float64 class scores and computes argmax
// accuracy against the one-hot holdout labels; pipelines with any other
// output type must provide their own scorer.
func WithScorer[I, O any](s Scorer[I, O]) Option[I, O] {
	return func(c *config[I, O]) {
		if s != nil {
			c.scorer = s
		}
	}
}

// WithFitOptions forwards keystone Fit options to every candidate fit
// (optimizer level, cache budget, sample sizes, ...). The search
// appends its own worker bound and shared-cache options after these, so
// the per-fit worker budget cannot be overridden here.
func WithFitOptions[I, O any](opts ...keystone.Option) Option[I, O] {
	return func(c *config[I, O]) { c.fitOpts = append(c.fitOpts, opts...) }
}

// DeployWinner closes the search-to-serving loop: after the search
// picks its winner, the winner is staged on rt as a canary at the given
// traffic fraction — persisting it through the route's artifact store
// up front, exactly like any canary — and immediately promoted to the
// live version. Report.DeployedVersion and Report.DeployedArtifact
// record the outcome. A deploy failure returns the error from Search
// alongside the (still valid) winner and report.
func DeployWinner[I, O any](rt *serve.Route[I, O], fraction float64) Option[I, O] {
	return func(c *config[I, O]) {
		c.deploy = func(ctx context.Context, winner *keystone.Fitted[I, O], report *Report) error {
			if rt == nil {
				return fmt.Errorf("tune: DeployWinner with nil route")
			}
			if _, err := rt.Canary(ctx, winner, fraction); err != nil {
				return fmt.Errorf("tune: stage winner on route %q: %w", rt.Name(), err)
			}
			id, err := rt.Promote(ctx)
			if err != nil {
				return fmt.Errorf("tune: promote winner on route %q: %w", rt.Name(), err)
			}
			report.DeployedVersion = id
			report.DeployedArtifact = rt.LiveArtifact()
			return nil
		}
	}
}

// accuracyScorer is the default scorer: argmax accuracy of []float64
// class scores against one-hot holdout labels.
func accuracyScorer[I, O any](ctx context.Context, fitted *keystone.Fitted[I, O], val []I, valLabels [][]float64) (float64, error) {
	preds, err := fitted.TransformBatch(ctx, val)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, p := range preds {
		scores, ok := any(p).([]float64)
		if !ok {
			return 0, fmt.Errorf("tune: default scorer expects []float64 pipeline output, got %T; use WithScorer", p)
		}
		if argmax(scores) == argmax(valLabels[i]) {
			correct++
		}
	}
	return float64(correct) / float64(len(preds)), nil
}
