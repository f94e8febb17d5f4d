package tune_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"keystoneml/keystone"
	"keystoneml/keystone/registry"
	"keystoneml/keystone/serve"
	"keystoneml/keystone/tune"
)

// The test prefix ops are registered stateless operators, so they are
// content-addressable and candidates sharing them can share prefixes.
func scaleVec(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = 2 * v
	}
	return out
}

func shiftVec(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v + 1
	}
	return out
}

func init() {
	keystone.RegisterStatelessOp("tune.test.scale", scaleVec)
	keystone.RegisterStatelessOp("tune.test.shift", shiftVec)
}

// makeData builds a deterministic labeled dataset with class structure:
// class c records cluster around cos((c+1)(j+1)) with a small
// record-dependent wiggle.
func makeData(n, dim, classes int) ([][]float64, [][]float64) {
	recs := make([][]float64, n)
	labs := make([][]float64, n)
	for i := 0; i < n; i++ {
		c := i % classes
		x := make([]float64, dim)
		for j := range x {
			x[j] = math.Cos(float64((c+1)*(j+1))) + 0.1*math.Sin(float64(i*(j+1)))
		}
		recs[i] = x
		y := make([]float64, classes)
		y[c] = 1
		labs[i] = y
	}
	return recs, labs
}

// sharedBuilder builds candidates with a 3-op signable prefix
// (scale -> shift -> RandomFeatures) and a solver differing in its
// iteration count — the shape where cross-candidate sharing applies.
func sharedBuilder(dim, features int) tune.Builder[[]float64, []float64] {
	return func(p tune.Params) *keystone.Pipeline[[]float64, []float64] {
		pl := keystone.Input[[]float64]().
			Then(keystone.NewOp("tune.test.scale", scaleVec)).
			Then(keystone.NewOp("tune.test.shift", shiftVec)).
			Then(keystone.RandomFeatures(dim, features, 1.0, 7))
		return keystone.ThenEstimator(pl, keystone.LinearSolver(p.Int("iters")))
	}
}

// deterministicOpts pins the execution mode the exact-count assertions
// rely on: one fit at a time, sequential oracle, no optimizer cache.
func deterministicOpts() []tune.Option[[]float64, []float64] {
	return []tune.Option[[]float64, []float64]{
		tune.WithParallelism[[]float64, []float64](1),
		tune.WithMinSample[[]float64, []float64](1 << 20), // one round on the full split
		tune.WithFitOptions[[]float64, []float64](keystone.WithOptimizerLevel(keystone.LevelNone)),
	}
}

func TestGridDeterministicOrderAndNames(t *testing.T) {
	grid := tune.Grid(map[string][]float64{"b": {0.5}, "a": {1, 2}})
	if len(grid) != 2 {
		t.Fatalf("grid size = %d, want 2", len(grid))
	}
	if got := grid[0].Name(); got != "a=1,b=0.5" {
		t.Errorf("grid[0] = %q", got)
	}
	if got := grid[1].Name(); got != "a=2,b=0.5" {
		t.Errorf("grid[1] = %q", got)
	}
	if grid[0].Int("a") != 1 {
		t.Errorf("Int(a) = %d", grid[0].Int("a"))
	}
	if tune.Grid(map[string][]float64{"a": nil}) != nil {
		t.Error("grid with an empty axis should be empty")
	}
}

// TestSearchSharedPrefixExactCounts pins the tentpole mechanism: two
// candidates sharing a 3-node prefix compute each shared node exactly
// once between them, with every other access a shared hit.
//
// With LBFGS at k iterations fetching its input exactly k times plus one
// apply-model access, candidate iters=2 (fitting first, sequentially)
// computes the prefix (3 computes) and hits 2 times on its own refetches;
// candidate iters=3 never computes a prefix node and hits 3+1 = 4 times.
func TestSearchSharedPrefixExactCounts(t *testing.T) {
	recs, labs := makeData(48, 6, 3)
	grid := tune.Grid(map[string][]float64{"iters": {2, 3}})
	_, report, err := tune.Search(context.Background(), sharedBuilder(6, 16), grid, recs, labs,
		deterministicOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if report.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1 (MinSample covers the full split)", report.Rounds)
	}
	if report.SharedComputes != 3 {
		t.Errorf("shared computes = %d, want 3 (each shared prefix node computed once)", report.SharedComputes)
	}
	if report.SharedHits != 6 {
		t.Errorf("shared hits = %d, want 6 (2 refetches + 4 second-candidate accesses)", report.SharedHits)
	}
	if report.SharedCoalesced != 0 {
		t.Errorf("shared coalesced = %d, want 0 under sequential fits", report.SharedCoalesced)
	}
	byName := map[string]tune.CandidateReport{}
	for _, c := range report.Candidates {
		byName[c.Name] = c
	}
	if got := byName["iters=2"].SharedHits; got != 2 {
		t.Errorf("iters=2 shared hits = %d, want 2", got)
	}
	if got := byName["iters=3"].SharedHits; got != 4 {
		t.Errorf("iters=3 shared hits = %d, want 4", got)
	}
}

// TestSearchWinnerBitIdentical verifies the acceptance criterion that
// sharing never changes results: the winner returned by a shared-cache
// search predicts bit-identically to fitting the same candidate
// standalone on the same training split.
func TestSearchWinnerBitIdentical(t *testing.T) {
	recs, labs := makeData(48, 6, 3)
	build := sharedBuilder(6, 16)
	grid := tune.Grid(map[string][]float64{"iters": {2, 3}})
	ctx := context.Background()
	winner, report, err := tune.Search(ctx, build, grid, recs, labs, deterministicOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the documented holdout split (every 4th record at the
	// default 0.25) and fit the winning candidate standalone, without
	// any sharing, under the same execution options.
	var trainR, valR [][]float64
	var trainL [][]float64
	for i := range recs {
		if (i+1)%4 == 0 {
			valR = append(valR, recs[i])
		} else {
			trainR = append(trainR, recs[i])
			trainL = append(trainL, labs[i])
		}
	}
	standalone, err := build(report.Candidates[0].Params).Fit(ctx, trainR, trainL,
		keystone.WithOptimizerLevel(keystone.LevelNone), keystone.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := winner.TransformBatch(ctx, valR)
	if err != nil {
		t.Fatal(err)
	}
	want, err := standalone.TransformBatch(ctx, valR)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("winner predictions differ from the standalone fit of the same candidate")
	}
}

// TestSearchWithoutSharingIsolatesFits: WithSharing(false) gives every
// fit a private cache — no shared counter moves — and picks a winner
// that predicts exactly like the shared search's.
func TestSearchWithoutSharingIsolatesFits(t *testing.T) {
	recs, labs := makeData(48, 6, 3)
	grid := tune.Grid(map[string][]float64{"iters": {2, 3}})
	ctx := context.Background()
	shared, _, err := tune.Search(ctx, sharedBuilder(6, 16), grid, recs, labs, deterministicOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	isolated, report, err := tune.Search(ctx, sharedBuilder(6, 16), grid, recs, labs,
		append(deterministicOpts(), tune.WithSharing[[]float64, []float64](false))...)
	if err != nil {
		t.Fatal(err)
	}
	if report.SharedHits+report.SharedCoalesced+report.SharedComputes != 0 {
		t.Errorf("isolated search moved shared counters: hits %d, coalesced %d, computes %d",
			report.SharedHits, report.SharedCoalesced, report.SharedComputes)
	}
	got, err := isolated.TransformBatch(ctx, recs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := shared.TransformBatch(ctx, recs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("isolated and shared searches returned winners that predict differently")
	}
}

// TestSearchHalvesAndReportsTrajectories runs a real multi-round search:
// the winner survives every round with a score per round, losers are
// eliminated early, and the report is ordered best-first.
func TestSearchHalvesAndReportsTrajectories(t *testing.T) {
	recs, labs := makeData(216, 10, 4)
	build := func(p tune.Params) *keystone.Pipeline[[]float64, []float64] {
		pl := keystone.Input[[]float64]().
			Then(keystone.NewOp("tune.test.scale", scaleVec)).
			Then(keystone.RandomFeatures(10, p.Int("features"), 1.0, 7))
		return keystone.ThenEstimator(pl, keystone.LinearSolver(15))
	}
	grid := tune.Grid(map[string][]float64{"features": {2, 64}})
	_, report, err := tune.Search(context.Background(), build, grid, recs, labs,
		tune.WithParallelism[[]float64, []float64](2),
		tune.WithMinSample[[]float64, []float64](40),
		tune.WithFitOptions[[]float64, []float64](keystone.WithOptimizerLevel(keystone.LevelNone)))
	if err != nil {
		t.Fatal(err)
	}
	// 162 train records from MinSample 40: rounds at n = 40, 80, 160, 162.
	if report.Rounds < 3 {
		t.Fatalf("rounds = %d, want >= 3", report.Rounds)
	}
	winner, loser := report.Candidates[0], report.Candidates[len(report.Candidates)-1]
	if winner.Rounds <= loser.Rounds {
		t.Errorf("no early elimination: winner %d rounds vs loser %d", winner.Rounds, loser.Rounds)
	}
	if len(winner.Trajectory) != winner.Rounds {
		t.Errorf("winner trajectory has %d entries over %d rounds", len(winner.Trajectory), winner.Rounds)
	}
	if winner.Name != "features=64" {
		t.Errorf("winner = %q (accuracy %.2f), want the wider feature map", winner.Name, winner.Accuracy)
	}
	if winner.Accuracy < loser.Accuracy {
		t.Error("report is not sorted best-first")
	}
}

func TestSearchCancel(t *testing.T) {
	recs, labs := makeData(48, 6, 3)
	grid := tune.Grid(map[string][]float64{"iters": {2, 3}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := tune.Search(ctx, sharedBuilder(6, 16), grid, recs, labs, deterministicOpts()...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled search err = %v, want context.Canceled", err)
	}

	// Mid-search: the scorer cancels during the first candidate's round;
	// the search must unwind with the context error, not partial results.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	opts := append(deterministicOpts(),
		tune.WithScorer[[]float64, []float64](func(ctx context.Context, f *keystone.Fitted[[]float64, []float64], val [][]float64, valLabels [][]float64) (float64, error) {
			cancel2()
			return 0, ctx2.Err()
		}))
	_, _, err = tune.Search(ctx2, sharedBuilder(6, 16), grid, recs, labs, opts...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-search cancel err = %v, want context.Canceled", err)
	}
}

func TestSearchValidatesInputs(t *testing.T) {
	recs, labs := makeData(8, 4, 2)
	if _, _, err := tune.Search[[]float64, []float64](context.Background(), nil, tune.Grid(map[string][]float64{"a": {1}}), recs, labs); err == nil {
		t.Error("nil builder accepted")
	}
	if _, _, err := tune.Search(context.Background(), sharedBuilder(4, 8), nil, recs, labs); err == nil {
		t.Error("empty grid accepted")
	}
	if _, _, err := tune.Search(context.Background(), sharedBuilder(4, 8), tune.Grid(map[string][]float64{"iters": {2}}), recs, labs[:4]); err == nil {
		t.Error("mismatched labels accepted")
	}
}

// TestDeployWinnerEndToEnd closes the loop: search -> registry artifact
// -> live route. The winner must be persisted in the registry, promoted
// to the route's live version, tagged live, and served.
func TestDeployWinnerEndToEnd(t *testing.T) {
	recs, labs := makeData(48, 6, 3)
	build := sharedBuilder(6, 16)
	grid := tune.Grid(map[string][]float64{"iters": {2, 3}})
	ctx := context.Background()

	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer()
	defer srv.Close()
	initial, err := build(grid[0]).Fit(ctx, recs, labs, keystone.WithOptimizerLevel(keystone.LevelNone))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := serve.Register(srv, "tuned", initial, serve.VectorCodec{Dim: 6}, serve.WithArtifactStore(reg))
	if err != nil {
		t.Fatal(err)
	}

	opts := append(deterministicOpts(), tune.DeployWinner(rt, 0.5))
	winner, report, err := tune.Search(ctx, build, grid, recs, labs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if report.DeployedVersion != 2 {
		t.Errorf("deployed version = %d, want 2", report.DeployedVersion)
	}
	if report.DeployedArtifact == "" || rt.LiveArtifact() != report.DeployedArtifact {
		t.Errorf("deployed artifact %q vs live %q", report.DeployedArtifact, rt.LiveArtifact())
	}
	// The artifact is durable and decodes back to the winner.
	if id, err := reg.Resolve("tuned.live"); err != nil || id != report.DeployedArtifact {
		t.Errorf("tuned.live resolves to (%q, %v), want %q", id, err, report.DeployedArtifact)
	}
	restored, id, err := registry.Load[[]float64, []float64](reg, report.DeployedArtifact)
	if err != nil || id != report.DeployedArtifact {
		t.Fatalf("registry load: id %q err %v", id, err)
	}
	// Route, restored artifact and in-memory winner all agree.
	probe := recs[3]
	want, err := winner.Transform(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := rt.Predict(ctx, probe); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("route predict = (%v, %v), want %v", got, err, want)
	}
	if got, err := restored.Transform(ctx, probe); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("restored artifact predict = (%v, %v), want %v", got, err, want)
	}
}
