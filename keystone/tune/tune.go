// Package tune is the public hyperparameter-search subsystem: successive
// halving (the paper's Section 7 direction, after the authors' TuPAQ
// system) over a grid of pipeline configurations, with cross-candidate
// cache sharing — candidates that share a DAG prefix (same
// featurization, different solver hyperparameters) reuse each other's
// materialized intermediates through a search-scoped shared cache, the
// paper's pipeline-reuse argument applied one level up, across
// pipelines.
//
// A search is one call: Grid enumerates candidates, Search fits each
// round's survivors as parallel jobs through the pipeline scheduler on
// growing training subsets, scores them on a holdout split, halves, and
// returns the winning fitted pipeline plus a Report of every
// candidate's trajectory and the sharing counters. DeployWinner closes
// the loop with serving: the winner is persisted through the route's
// artifact store and rolled out via the canary path.
package tune

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"keystoneml/keystone"
)

// Params is one candidate's hyperparameter assignment: named numeric
// values the builder reads when constructing the candidate's pipeline.
type Params map[string]float64

// Int reads a parameter as an integer (hyperparameters like iteration
// counts and feature-map widths are carried as float64 grid axes).
func (p Params) Int(key string) int { return int(math.Round(p[key])) }

// Name renders the assignment deterministically: keys sorted, "k=v"
// pairs joined with ",". Two equal assignments always name identically.
func (p Params) Name() string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + strconv.FormatFloat(p[k], 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// clone returns a private copy so Report entries cannot alias grid
// entries the caller mutates later.
func (p Params) clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Grid enumerates the cartesian product of the named axes in
// deterministic order: axes iterate with their keys sorted, the last
// key varying fastest.
func Grid(axes map[string][]float64) []Params {
	keys := make([]string, 0, len(axes))
	total := 1
	for k, vs := range axes {
		if len(vs) == 0 {
			return nil
		}
		keys = append(keys, k)
		total *= len(vs)
	}
	sort.Strings(keys)
	out := make([]Params, 0, total)
	assign := make(Params, len(keys))
	var rec func(i int)
	rec = func(i int) {
		if i == len(keys) {
			out = append(out, assign.clone())
			return
		}
		for _, v := range axes[keys[i]] {
			assign[keys[i]] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// Builder constructs one candidate's pipeline from its hyperparameters.
// Builders must be pure: they are called once per round the candidate
// survives, and equal Params must yield pipelines with identical
// behaviour (cross-candidate sharing additionally requires the prefix
// operators to be content-addressable — library ops are, ad-hoc NewOp
// closures are not unless registered via keystone.RegisterStatelessOp).
type Builder[I, O any] func(Params) *keystone.Pipeline[I, O]

// CandidateReport is one candidate's record from a search, in the
// Report's best-first order.
type CandidateReport struct {
	// Name is Params.Name(); Params the assignment itself.
	Name   string
	Params Params
	// Accuracy is the holdout score from the last round the candidate
	// survived; Trajectory holds the score after every round it
	// participated in.
	Accuracy   float64
	Trajectory []float64
	// Rounds counts rounds survived; the winner survives all of them.
	Rounds int
	// TrainTime is wall time spent fitting this candidate (all rounds).
	TrainTime time.Duration
	// SharedHits counts this candidate's node accesses that were served
	// by the search's shared prefix cache instead of recomputed.
	SharedHits int64
}

// Report is the typed result of one Search call.
type Report struct {
	// Candidates is every evaluated configuration, best-first (rounds
	// survived, then final accuracy). Candidates[0] is the winner.
	Candidates []CandidateReport
	// Rounds is the number of halving rounds the search ran.
	Rounds int
	// WallTime is the full search duration (fits, scoring, halving).
	WallTime time.Duration
	// SharedHits / SharedCoalesced / SharedComputes aggregate the
	// cross-candidate cache counters over all rounds: accesses served
	// from a stored shared entry, accesses that joined another
	// candidate's in-flight computation, and shared-prefix computations
	// that actually ran (with sharing, one per distinct prefix node per
	// round). All zero when sharing is disabled.
	SharedHits, SharedCoalesced, SharedComputes int64
	// DeployedVersion / DeployedArtifact are set when a DeployWinner
	// option rolled the winner out: the route version now serving and
	// its registry artifact reference.
	DeployedVersion  int
	DeployedArtifact string
}

// Search runs successive halving over the grid: every candidate's
// pipeline fits on a small training subsample, is scored on a held-out
// validation split, and only the top 1/eta advance to a subsample eta
// times larger, until the survivors have fitted the full training split.
// Fits within a round run as parallel jobs (bounded by WithParallelism,
// the worker budget divided among concurrent fits), and with sharing
// enabled (the default) all of a round's fits share one prefix cache —
// DAG prefixes common to several candidates are computed once per round.
//
// records/labels are the full labeled dataset; Search carves the holdout
// split off deterministically (WithHoldout). The returned Fitted is the
// winner as fitted on the full training split in its final round —
// bit-identical to fitting that candidate standalone on the same split.
// ctx cancels the search cleanly between rounds or mid-fit.
func Search[I, O any](ctx context.Context, build Builder[I, O], grid []Params, records []I, labels [][]float64, opts ...Option[I, O]) (*keystone.Fitted[I, O], *Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if build == nil {
		return nil, nil, fmt.Errorf("tune: Search requires a pipeline builder")
	}
	if len(grid) == 0 {
		return nil, nil, fmt.Errorf("tune: Search over an empty grid")
	}
	if len(labels) != len(records) {
		return nil, nil, fmt.Errorf("tune: %d records but %d labels", len(records), len(labels))
	}
	cfg := defaultConfig[I, O]()
	for _, opt := range opts {
		opt(&cfg)
	}
	trainRecs, trainLabs, valRecs, valLabs, err := holdoutSplit(records, labels, cfg.holdout)
	if err != nil {
		return nil, nil, err
	}

	start := time.Now()
	fullN := len(trainRecs)
	// Per-candidate slots are written only by that candidate's own fit
	// (disjoint indices), so no locking is needed around them.
	fitteds := make([]*keystone.Fitted[I, O], len(grid))
	sharedHits := make([]int64, len(grid))

	// One shared prefix cache per round: the training subset grows
	// between rounds, and the cache's correctness contract is
	// identical-data fits only. roundStart runs before the round's fits
	// dispatch, so every fit of the round sees the same cache.
	var caches []*keystone.PrefixCache
	var cur *keystone.PrefixCache
	roundStart := func(round) {
		if cfg.share {
			cur = keystone.NewPrefixCache(cfg.cacheBudget)
			caches = append(caches, cur)
		}
	}

	fit := func(ctx context.Context, r round, cand, workers int) (float64, error) {
		recs, labs := subsample(trainRecs, trainLabs, r.n)
		fitOpts := append(append([]keystone.Option(nil), cfg.fitOpts...), keystone.WithWorkers(workers))
		if cfg.share {
			fitOpts = append(fitOpts, keystone.WithPrefixCache(cur))
		}
		fitted, err := build(grid[cand]).Fit(ctx, recs, labs, fitOpts...)
		if err != nil {
			return 0, fmt.Errorf("tune: fit %q (round %d): %w", grid[cand].Name(), r.index, err)
		}
		fitteds[cand] = fitted
		for _, nr := range fitted.TrainReport() {
			sharedHits[cand] += int64(nr.SharedHits)
		}
		score, err := cfg.scorer(ctx, fitted, valRecs, valLabs)
		if err != nil {
			return 0, fmt.Errorf("tune: score %q (round %d): %w", grid[cand].Name(), r.index, err)
		}
		return score, nil
	}

	outcomes, err := cfg.halve(ctx, len(grid), fullN, roundStart, fit)
	if err != nil {
		return nil, nil, err
	}

	report := &Report{
		Candidates: make([]CandidateReport, len(outcomes)),
		Rounds:     outcomes[0].rounds,
		WallTime:   time.Since(start),
	}
	for i, o := range outcomes {
		report.Candidates[i] = CandidateReport{
			Name:       grid[o.index].Name(),
			Params:     grid[o.index].clone(),
			Accuracy:   o.score(),
			Trajectory: o.scores,
			Rounds:     o.rounds,
			TrainTime:  o.trainTime,
			SharedHits: sharedHits[o.index],
		}
	}
	for _, c := range caches {
		st := c.Stats()
		report.SharedHits += st.SharedHits
		report.SharedCoalesced += st.Coalesced
		report.SharedComputes += st.Computes
	}
	winner := fitteds[outcomes[0].index]
	if winner == nil {
		return nil, nil, fmt.Errorf("tune: winner %q has no fitted pipeline", report.Candidates[0].Name)
	}
	if cfg.deploy != nil {
		if err := cfg.deploy(ctx, winner, report); err != nil {
			return winner, report, err
		}
	}
	return winner, report, nil
}

// holdoutSplit carves a deterministic validation split off the dataset:
// every k-th record (k from the holdout fraction) is held out, the rest
// train. The stride keeps any class ordering in the data represented on
// both sides.
func holdoutSplit[I any](records []I, labels [][]float64, frac float64) (trainR []I, trainL [][]float64, valR []I, valL [][]float64, err error) {
	if frac <= 0 || frac >= 1 {
		return nil, nil, nil, nil, fmt.Errorf("tune: holdout fraction %v out of range (0, 1)", frac)
	}
	k := int(math.Round(1 / frac))
	if k < 2 {
		k = 2
	}
	for i := range records {
		if (i+1)%k == 0 {
			valR = append(valR, records[i])
			valL = append(valL, labels[i])
		} else {
			trainR = append(trainR, records[i])
			trainL = append(trainL, labels[i])
		}
	}
	if len(trainR) == 0 || len(valR) == 0 {
		return nil, nil, nil, nil, fmt.Errorf("tune: %d records are too few to split train/holdout", len(records))
	}
	return trainR, trainL, valR, valL, nil
}

// subsample picks n evenly strided records (the same stride the engine's
// Collection.Sample uses); n >= len returns the slices unchanged, which
// is what makes the final round's winner fit identical to a standalone
// fit.
func subsample[I any](records []I, labels [][]float64, n int) ([]I, [][]float64) {
	total := len(records)
	if n >= total {
		return records, labels
	}
	stride := total / n
	if stride < 1 {
		stride = 1
	}
	recs := make([]I, 0, n)
	labs := make([][]float64, 0, n)
	for i := 0; i < total && len(recs) < n; i += stride {
		recs = append(recs, records[i])
		labs = append(labs, labels[i])
	}
	return recs, labs
}

// argmax returns the index of the largest score (first on ties).
func argmax(scores []float64) int {
	best := 0
	for i, s := range scores {
		if s > scores[best] {
			best = i
		}
	}
	return best
}
