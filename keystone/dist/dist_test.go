package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"keystoneml/internal/engine"
	"keystoneml/keystone"
	"keystoneml/keystone/registry"
	"keystoneml/keystone/serve"
)

// startCluster boots n in-process workers over real TCP loopback sockets
// and a coordinator connected to them.
func startCluster(t *testing.T, n int, opts WorkerOptions) (*Cluster, []*Worker) {
	t.Helper()
	workers := make([]*Worker, n)
	addrs := make([]string, n)
	for i := range workers {
		o := opts
		o.Listen = "127.0.0.1:0"
		w, err := StartWorker(o)
		if err != nil {
			t.Fatalf("start worker %d: %v", i, err)
		}
		t.Cleanup(func() { w.Close() })
		workers[i] = w
		addrs[i] = w.Addr()
	}
	cl, err := Connect(addrs...)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, workers
}

// TestWireRoundTrip loads a partitioned collection onto two workers over
// the real wire, fetches it back, and checks both content and partition
// structure survived bit for bit.
func TestWireRoundTrip(t *testing.T) {
	cl, _ := startCluster(t, 2, WorkerOptions{})

	recs := make([]any, 17)
	for i := range recs {
		recs[i] = fmt.Sprintf("doc %d", i)
	}
	coll := engine.FromSlice(recs, 5)
	if err := cl.Load("d", coll); err != nil {
		t.Fatalf("load: %v", err)
	}

	got, err := cl.Fetch("d")
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if got.NumPartitions() != coll.NumPartitions() {
		t.Fatalf("fetched %d partitions, want %d", got.NumPartitions(), coll.NumPartitions())
	}
	for i := 0; i < coll.NumPartitions(); i++ {
		if !reflect.DeepEqual(got.Partition(i), coll.Partition(i)) {
			t.Fatalf("partition %d changed across the wire", i)
		}
	}

	// Stats shows the round-robin split: 5 partitions over 2 workers.
	stats, err := cl.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	total := 0
	for _, per := range stats {
		total += per["d"]
	}
	if total != len(recs) {
		t.Fatalf("workers hold %d records, want %d", total, len(recs))
	}

	if err := cl.Free("d"); err != nil {
		t.Fatalf("free: %v", err)
	}
	if _, err := cl.Fetch("d"); err == nil {
		t.Fatal("fetch after free succeeded")
	}
}

// TestApplyNotShippable: an anonymous closure operator (no state codec,
// not registered) must be rejected client-side with a clear error.
func TestApplyNotShippable(t *testing.T) {
	cl, _ := startCluster(t, 1, WorkerOptions{})
	op := keystone.NewOp("anon", func(s string) string { return s })
	if err := cl.Load("d", engine.FromSlice([]any{"x"}, 1)); err != nil {
		t.Fatal(err)
	}
	g, out := keystone.Then(keystone.Input[string](), op).EngineGraph()
	_ = out
	err := cl.Apply("e", "d", g.Sink.Transform)
	if err == nil {
		t.Fatal("shipping an unregistered closure succeeded")
	}
}

// TestFitBitIdentical is the acceptance check: a distributed fit of the
// Figure 2 text pipeline over 2 worker processes must produce a model
// whose predictions are bit-identical (exact float equality) to the
// single-process oracle at the same optimizer level.
func TestFitBitIdentical(t *testing.T) {
	train := keystone.SyntheticReviews(120, 1)
	test := keystone.SyntheticReviews(30, 2)
	p := keystone.TextPipeline(keystone.TextConfig{NumFeatures: 400, Iterations: 5})

	local, err := p.Fit(context.Background(), train.Records, train.Labels,
		keystone.WithOptimizerLevel(keystone.LevelPipeline),
		keystone.WithPartitions(4),
		keystone.WithWorkers(1))
	if err != nil {
		t.Fatalf("local fit: %v", err)
	}

	cl, _ := startCluster(t, 2, WorkerOptions{})
	distFit, rep, err := Fit(context.Background(), cl, p, train.Records, train.Labels, FitOptions{
		Level:      keystone.LevelPipeline,
		Partitions: 4,
	})
	if err != nil {
		t.Fatalf("dist fit: %v", err)
	}
	if rep.Workers != 2 || rep.Partitions != 4 {
		t.Fatalf("report = %+v, want 2 workers / 4 partitions", rep)
	}
	if rep.ModeledMakespan <= 0 {
		t.Fatalf("modeled makespan = %g, want > 0", rep.ModeledMakespan)
	}

	for i, doc := range test.Records {
		want, err := local.Transform(context.Background(), doc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := distFit.Transform(context.Background(), doc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("doc %d: dist prediction %v != local %v", i, got, want)
		}
	}

	// The run cleans up after itself: no datasets left resident.
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for wi, per := range stats {
		if len(per) != 0 {
			t.Fatalf("worker %d still holds %v after fit", wi, per)
		}
	}
}

// TestFitCancel: a canceled context aborts the distributed fit with the
// context error rather than hanging or panicking.
func TestFitCancel(t *testing.T) {
	cl, _ := startCluster(t, 2, WorkerOptions{})
	train := keystone.SyntheticReviews(80, 1)
	p := keystone.TextPipeline(keystone.TextConfig{NumFeatures: 200, Iterations: 3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Fit(ctx, cl, p, train.Records, train.Labels, FitOptions{
		Level: keystone.LevelPipeline,
	})
	if err == nil {
		t.Fatal("canceled fit succeeded")
	}
}

// TestFitValidation covers the argument contract.
func TestFitValidation(t *testing.T) {
	cl, _ := startCluster(t, 1, WorkerOptions{})
	p := keystone.TextPipeline(keystone.TextConfig{NumFeatures: 100, Iterations: 2})
	if _, _, err := Fit(context.Background(), cl, p, nil, nil, FitOptions{}); err == nil {
		t.Fatal("empty fit succeeded")
	}
	if _, _, err := Fit(context.Background(), cl, p, []string{"a", "b"}, [][]float64{{1}}, FitOptions{}); err == nil {
		t.Fatal("mismatched labels accepted")
	}
	if _, _, err := Fit(context.Background(), cl, p, []string{"a"}, nil, FitOptions{}); err == nil {
		t.Fatal("supervised pipeline accepted nil labels")
	}
}

// TestServeRouteAndRouter drives the full sharded-serving path: fit,
// encode to a registry, ship the artifact id to every worker replica via
// the wire serve op, front the replicas with the consistent-hash router,
// predict through it, push rollout state, then kill one worker and
// verify the router keeps serving from the survivor.
func TestServeRouteAndRouter(t *testing.T) {
	regDir := t.TempDir()
	reg, err := registry.Open(regDir)
	if err != nil {
		t.Fatal(err)
	}

	train := keystone.SyntheticReviews(100, 1)
	p := keystone.TextPipeline(keystone.TextConfig{NumFeatures: 200, Iterations: 3})
	fitted, err := p.Fit(context.Background(), train.Records, train.Labels,
		keystone.WithOptimizerLevel(keystone.LevelPipeline))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := keystone.Encode(fitted)
	if err != nil {
		t.Fatal(err)
	}
	id, err := reg.Put(blob)
	if err != nil {
		t.Fatal(err)
	}

	RegisterServeKind("disttest-text", func(srv *serve.Server, store serve.ArtifactStore, route, ref string) error {
		_, err := serve.RegisterArtifact[string, []float64](srv, route, store, ref, serve.TextCodec{})
		return err
	})

	cl, workers := startCluster(t, 2, WorkerOptions{HTTPListen: "127.0.0.1:0", RegistryDir: regDir})
	replicas, err := cl.ServeRoute("disttest-text", "text", id)
	if err != nil {
		t.Fatalf("serve route: %v", err)
	}
	if len(replicas) != 2 || replicas[0] == "" || replicas[1] == "" {
		t.Fatalf("replica addrs = %v", replicas)
	}

	router, err := NewRouter(RouterOptions{Replicas: replicas, HealthInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	doc := train.Records[0]
	want, err := fitted.Transform(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	got := predictViaRouter(t, router, doc)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("router prediction %v != direct %v", got, want)
	}

	// Same affinity key must keep landing on the same replica (warm
	// state); different keys spread.
	if a, b := routedReplica(t, router, "stable-key"), routedReplica(t, router, "stable-key"); a != b {
		t.Fatalf("same key routed to %s then %s", a, b)
	}

	// Push shared rollout state and verify it landed on every replica.
	cap := 7
	if err := router.PushRollout(context.Background(), "text", serve.RolloutState{MaxInFlight: &cap}); err != nil {
		t.Fatalf("push rollout: %v", err)
	}
	for _, addr := range replicas {
		st := getRolloutState(t, addr, "text")
		if st.MaxInFlight == nil || *st.MaxInFlight != 7 {
			t.Fatalf("replica %s rollout state = %+v, want MaxInFlight 7", addr, st)
		}
	}

	// Kill one worker: the router must degrade to the survivor, not 503.
	workers[0].Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := predictViaRouterMaybe(router, doc); got != nil {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("degraded prediction %v != direct %v", got, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router never recovered after losing one replica")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The health loop (or a failed forward) marks the killed replica
	// down shortly after.
	for {
		sawDown := false
		for _, rs := range router.Replicas() {
			if !rs.Healthy {
				sawDown = true
			}
		}
		if sawDown {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router never marked the killed replica down")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// equalFits fits p once in this process and once over cl with no option
// set but the partition count — the one input the two placements derive
// differently — and checks the results agree: bit-identical predictions,
// the same cache set and operator choices, and a training report.
func equalFits[I any](t *testing.T, cl *Cluster, p *keystone.Pipeline[I, []float64], train, test keystone.Dataset[I]) {
	t.Helper()
	const partitions = 4
	local, err := p.Fit(context.Background(), train.Records, train.Labels, keystone.WithPartitions(partitions))
	if err != nil {
		t.Fatalf("local fit: %v", err)
	}
	placed, rep, err := Fit(context.Background(), cl, p, train.Records, train.Labels, FitOptions{Partitions: partitions})
	if err != nil {
		t.Fatalf("dist fit: %v", err)
	}
	if rep.Partitions != partitions || rep.Recoveries != 0 {
		t.Fatalf("report = %+v, want %d partitions and no recoveries", rep, partitions)
	}
	want, err := local.TransformBatch(context.Background(), test.Records)
	if err != nil {
		t.Fatal(err)
	}
	got, err := placed.TransformBatch(context.Background(), test.Records)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("dist predictions differ from the local fit's")
	}
	li, pi := local.Info(), placed.Info()
	if !reflect.DeepEqual(pi.Chosen, li.Chosen) {
		t.Errorf("dist chose operators %v, local %v", pi.Chosen, li.Chosen)
	}
	if !reflect.DeepEqual(pi.Cached, li.Cached) {
		t.Errorf("dist cached %v, local %v", pi.Cached, li.Cached)
	}
	if len(placed.TrainReport()) == 0 {
		t.Error("dist fit has no training report")
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for wi, per := range stats {
		if len(per) != 0 {
			t.Errorf("worker %d still holds %v after fit", wi, per)
		}
	}
}

// TestFitEqualsLocalFit: placement is a parameter of one Fit, not a
// second implementation — on the linear text chain, the gathered speech
// blocks and the branchy image DAG.
func TestFitEqualsLocalFit(t *testing.T) {
	cl, _ := startCluster(t, 2, WorkerOptions{})
	t.Run("text", func(t *testing.T) {
		p := keystone.TextPipeline(keystone.TextConfig{NumFeatures: 400, Iterations: 5})
		equalFits(t, cl, p, keystone.SyntheticReviews(160, 1), keystone.SyntheticReviews(30, 2))
	})
	t.Run("speech", func(t *testing.T) {
		p := keystone.SpeechPipeline(keystone.SpeechConfig{InputDim: 12, NumFeatures: 64, Seed: 7, Iterations: 5})
		equalFits(t, cl, p, keystone.SyntheticDenseVectors(160, 12, 4, 1), keystone.SyntheticDenseVectors(30, 12, 4, 2))
	})
	t.Run("vision", func(t *testing.T) {
		p := keystone.VisionPipeline(keystone.VisionConfig{
			PCADims: 8, GMMComponents: 4, SampleDescs: 20, Seed: 9, Iterations: 5, WithLCS: true})
		equalFits(t, cl, p, keystone.SyntheticImages(48, 32, 3, 4, 1), keystone.SyntheticImages(8, 32, 3, 4, 2))
	})
}

// unshippable is a record type nobody registered for the wire.
type unshippable struct{ V float64 }

// TestFitUnencodableRecordLeavesClusterUsable: a record type gob cannot
// encode is the caller's mistake, not a worker's failure — the fit fails
// with ErrFrameEncode, no worker is declared dead, nothing stays
// resident, and the same cluster then fits normally.
func TestFitUnencodableRecordLeavesClusterUsable(t *testing.T) {
	cl, _ := startCluster(t, 2, WorkerOptions{})
	p := keystone.Then(keystone.Input[unshippable](),
		keystone.NewOp("disttest.unwrap", func(u unshippable) []float64 { return []float64{u.V} }))
	_, _, err := Fit(context.Background(), cl, p, []unshippable{{1}, {2}, {3}, {4}}, nil, FitOptions{Level: keystone.LevelNone})
	if !errors.Is(err, ErrFrameEncode) {
		t.Fatalf("fit over an unregistered record type: err = %v, want ErrFrameEncode", err)
	}
	if got := cl.LiveWorkers(); got != 2 {
		t.Fatalf("%d live workers after an encode error, want 2", got)
	}

	train := keystone.SyntheticReviews(120, 1)
	test := keystone.SyntheticReviews(30, 2)
	text := keystone.TextPipeline(keystone.TextConfig{NumFeatures: 400, Iterations: 5})
	equalFits(t, cl, text, train, test)
}

// wireFeatures maps the gob-carried records of TestFitGobRecords to
// dense features; registered by name, so workers can run it.
func wireFeatures(rec any) []float64 {
	switch v := rec.(type) {
	case wirePoint:
		return []float64{v.X, v.Y, v.X * v.Y}
	case wirePolar:
		x, y := v.R*math.Cos(v.Theta), v.R*math.Sin(v.Theta)
		return []float64{x, y, x * y}
	case []float64:
		return []float64{v[0], v[1], v[0] * v[1]}
	}
	panic(fmt.Sprintf("disttest: no features for %T", rec))
}

func init() { keystone.RegisterStatelessOp("disttest.wirefeatures", wireFeatures) }

// TestFitGobRecords: partitions the typed kinds do not cover — a
// registered custom record type, and records of mixed types — cross the
// wire as gob, and the fits over them are bit-identical (Float64bits) to
// the local fit.
func TestFitGobRecords(t *testing.T) {
	data := keystone.SyntheticDenseVectors(120, 2, 2, 3)
	custom := make([]any, len(data.Records))
	mixed := make([]any, len(data.Records))
	for i, v := range data.Records {
		custom[i] = wirePoint{v[0], v[1]}
		switch i % 3 {
		case 0:
			mixed[i] = wirePoint{v[0], v[1]}
		case 1:
			mixed[i] = wirePolar{math.Hypot(v[0], v[1]), math.Atan2(v[1], v[0])}
		default:
			mixed[i] = v
		}
	}
	if partitionKind(custom) != kindGob || partitionKind(mixed) != kindGob {
		t.Fatal("the records would not cross as gob")
	}
	p := keystone.ThenEstimator(
		keystone.Then(keystone.Input[any](), keystone.NewOp("disttest.wirefeatures", wireFeatures)),
		keystone.LinearSolver(5))
	cl, _ := startCluster(t, 2, WorkerOptions{})
	for name, recs := range map[string][]any{"custom": custom, "mixed": mixed} {
		t.Run(name, func(t *testing.T) {
			local, err := p.Fit(context.Background(), recs, data.Labels,
				keystone.WithOptimizerLevel(keystone.LevelPipeline),
				keystone.WithPartitions(4),
				keystone.WithWorkers(1))
			if err != nil {
				t.Fatalf("local fit: %v", err)
			}
			placed, _, err := Fit(context.Background(), cl, p, recs, data.Labels, FitOptions{
				Level:      keystone.LevelPipeline,
				Partitions: 4,
			})
			if err != nil {
				t.Fatalf("dist fit: %v", err)
			}
			want, err := local.TransformBatch(context.Background(), recs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := placed.TransformBatch(context.Background(), recs)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d dist predictions, %d local", len(got), len(want))
			}
			for i := range want {
				for j := range want[i] {
					if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
						t.Fatalf("record %d score %d: dist %v, local %v", i, j, got[i][j], want[i][j])
					}
				}
			}
		})
	}
}
