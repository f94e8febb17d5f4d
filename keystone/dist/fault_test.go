package dist

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"keystoneml/keystone"
)

// The chaos suite: deterministic fault injection (FaultPlan) driving the
// coordinator's failure paths — redial-and-resend for transient faults,
// partition reassignment plus lineage replay for worker deaths — and
// asserting the surviving fit is bit-identical to the single-process
// oracle at every injection point.

// chaosConfig is the small text pipeline every chaos test fits: big
// enough to exercise load, apply, zip gathers, and estimator
// fetches; small enough to re-fit once per injection point.
func chaosPipeline() *keystone.Pipeline[string, []float64] {
	return keystone.TextPipeline(keystone.TextConfig{NumFeatures: 100, Iterations: 3})
}

// chaosUnfusedPipeline is chaosPipeline with LowerCase before Trim: the
// same function on the ASCII synthetic reviews, but the chain no longer
// matches the Figure 2 chain, so CommonSparseFeatures does not absorb it
// and the fit runs every transform as a pass of its own.
func chaosUnfusedPipeline() *keystone.Pipeline[string, []float64] {
	docs := keystone.Input[string]().Then(keystone.LowerCase()).Then(keystone.Trim())
	tf := keystone.Then(keystone.Then(keystone.Then(docs, keystone.Tokenizer()), keystone.NGrams(1, 2)), keystone.TermFrequency())
	return keystone.ThenEstimator(keystone.ThenEstimator(tf, keystone.CommonSparseFeatures(100)),
		keystone.LogisticRegression(3))
}

var (
	chaosOnce   sync.Once
	chaosTrain  keystone.Dataset[string]
	chaosTest   keystone.Dataset[string]
	chaosOracle [][]float64
	chaosErr    error
)

// chaosSetup fits the single-process oracle once (all chaos runs compare
// against the same predictions).
func chaosSetup(t *testing.T) {
	t.Helper()
	chaosOnce.Do(func() {
		chaosTrain = keystone.SyntheticReviews(60, 1)
		chaosTest = keystone.SyntheticReviews(10, 2)
		local, err := chaosPipeline().Fit(context.Background(), chaosTrain.Records, chaosTrain.Labels,
			keystone.WithOptimizerLevel(keystone.LevelPipeline),
			keystone.WithPartitions(4),
			keystone.WithWorkers(1))
		if err != nil {
			chaosErr = err
			return
		}
		for _, doc := range chaosTest.Records {
			pred, err := local.Transform(context.Background(), doc)
			if err != nil {
				chaosErr = err
				return
			}
			chaosOracle = append(chaosOracle, pred)
		}
	})
	if chaosErr != nil {
		t.Fatalf("oracle fit: %v", chaosErr)
	}
}

// chaosFit runs one distributed fit of the chaos pipeline over a fresh
// 2-worker cluster with the given fault plan armed and tight failure
// timeouts, returning the fitted pipeline, the report, and the workers.
func chaosFit(t *testing.T, plan *FaultPlan) (*keystone.Fitted[string, []float64], *Report, error) {
	t.Helper()
	return chaosFitPipeline(t, chaosPipeline(), plan)
}

// chaosFitPipeline is chaosFit over pipeline p.
func chaosFitPipeline(t *testing.T, p *keystone.Pipeline[string, []float64], plan *FaultPlan) (*keystone.Fitted[string, []float64], *Report, error) {
	t.Helper()
	workers := make([]*Worker, 2)
	addrs := make([]string, 2)
	for i := range workers {
		w, err := StartWorker(WorkerOptions{Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatalf("start worker %d: %v", i, err)
		}
		t.Cleanup(func() { w.Close() })
		workers[i] = w
		addrs[i] = w.Addr()
	}
	if plan != nil && plan.OnSever == nil {
		// Default sever hook: kill the worker itself, so a severed
		// connection is real partition loss, not just a torn socket.
		plan.OnSever = func(i int) { workers[i].Close() }
	}
	cl, err := ConnectWith(ClusterOptions{
		Addrs:        addrs,
		OpTimeout:    2 * time.Second,
		DialRetries:  1,
		RetryBackoff: 5 * time.Millisecond,
		Fault:        plan,
	})
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	fitted, rep, err := Fit(context.Background(), cl, p, chaosTrain.Records, chaosTrain.Labels, FitOptions{
		Level:      keystone.LevelPipeline,
		Partitions: 4,
	})
	return fitted, rep, err
}

// assertOracleMatch checks the fitted pipeline predicts bit-identically
// (exact float equality) to the single-process oracle on every test doc.
func assertOracleMatch(t *testing.T, fitted *keystone.Fitted[string, []float64]) {
	t.Helper()
	for i, doc := range chaosTest.Records {
		got, err := fitted.Transform(context.Background(), doc)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, chaosOracle[i]) {
			t.Fatalf("doc %d: recovered prediction %v != oracle %v", i, got, chaosOracle[i])
		}
	}
}

// TestFaultPlanObserve pins the injection semantics the chaos suite
// rests on: per-(op, worker) frame counting, any-worker and any-op
// aggregation, exact-ordinal firing, and fire-once.
func TestFaultPlanObserve(t *testing.T) {
	plan := NewFaultPlan(
		FaultRule{Op: "apply", Worker: 0, Nth: 2, Mode: FaultDrop},
		FaultRule{Op: "load", Worker: -1, Nth: 3, Mode: FaultDelay, Delay: time.Millisecond},
	)
	if act := plan.observe(0, "apply"); act.mode != 0 {
		t.Fatalf("frame 1 tripped %v", act.mode)
	}
	if act := plan.observe(1, "apply"); act.mode != 0 {
		t.Fatal("worker-1 frame tripped a worker-0 rule")
	}
	if act := plan.observe(0, "apply"); act.mode != FaultDrop {
		t.Fatal("2nd apply frame to worker 0 did not trip the drop rule")
	}
	if act := plan.observe(0, "apply"); act.mode != 0 {
		t.Fatal("rule fired twice")
	}
	// Any-worker rule counts across workers: load frames to 0, 1, 0.
	plan.observe(0, "load")
	plan.observe(1, "load")
	if act := plan.observe(0, "load"); act.mode != FaultDelay {
		t.Fatal("3rd load frame across workers did not trip the any-worker rule")
	}
	if got := plan.FrameCount("apply", 0); got != 3 {
		t.Fatalf("FrameCount(apply, 0) = %d, want 3", got)
	}
	if got := plan.FrameCount("load", -1); got != 3 {
		t.Fatalf("FrameCount(load, -1) = %d, want 3", got)
	}
	ev := plan.Events()
	if len(ev) != 2 || ev[0].Mode != FaultDrop || ev[1].Mode != FaultDelay {
		t.Fatalf("events = %+v", ev)
	}
}

// TestChaosKillAtEveryPassBoundary is the tentpole acceptance test: a
// counting-only run first maps every wire frame the fit sends to worker
// 0, then one fresh fit per (op kind, frame ordinal) severs that exact
// frame AND kills the worker behind it. Every run must complete via
// reassignment + lineage replay and predict bit-identically to the
// single-process oracle. The sweep covers both fit shapes: the unfused
// chain, one pass per transform (subtests kind/nth), and the fused
// Figure 2 fit the text pipeline takes (subtests fused/kind/nth).
func TestChaosKillAtEveryPassBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep re-fits once per injection point")
	}
	chaosSetup(t)
	sweepKills(t, chaosUnfusedPipeline)
	t.Run("fused", func(t *testing.T) { sweepKills(t, chaosPipeline) })
}

// sweepKills counts the frames a clean fit of pipeline() sends to worker
// 0, then runs one subtest per (op kind, frame ordinal) that kills worker
// 0 at that frame.
func sweepKills(t *testing.T, pipeline func() *keystone.Pipeline[string, []float64]) {
	// Discovery: an inert plan counts the frames of a clean fit.
	counter := NewFaultPlan()
	counter.OnSever = func(int) {} // never fires; suppresses the kill default
	fitted, rep, err := chaosFitPipeline(t, pipeline(), counter)
	if err != nil {
		t.Fatalf("clean fit under counting plan: %v", err)
	}
	if rep.Recoveries != 0 || rep.ReplayedPartitions != 0 {
		t.Fatalf("clean run reported recoveries: %+v", rep)
	}
	assertOracleMatch(t, fitted)

	kinds := []string{opLoad, opApply, opZip, opFetch}
	total := 0
	for _, kind := range kinds {
		n := counter.FrameCount(kind, 0)
		total += n
		t.Logf("frames to worker 0: %-6s %d", kind, n)
	}
	if total == 0 {
		t.Fatal("discovery run sent no frames to worker 0")
	}

	for _, kind := range kinds {
		frames := counter.FrameCount(kind, 0)
		for nth := 1; nth <= frames; nth++ {
			kind, nth := kind, nth
			t.Run(kind+"/"+itoa(nth), func(t *testing.T) {
				plan := NewFaultPlan(FaultRule{Op: kind, Worker: 0, Nth: nth, Mode: FaultSever})
				fitted, rep, err := chaosFitPipeline(t, pipeline(), plan)
				if err != nil {
					t.Fatalf("fit did not survive killing worker 0 at %s frame %d: %v", kind, nth, err)
				}
				if ev := plan.Events(); len(ev) != 1 {
					t.Fatalf("injection did not fire exactly once: %+v", ev)
				}
				if rep.Recoveries < 1 {
					t.Fatalf("report shows no recovery after a kill: %+v", rep)
				}
				// A kill at the initial load recovers by re-running the
				// load itself — no other dataset exists to replay yet.
				if kind != opLoad && rep.ReplayedPartitions < 1 {
					t.Fatalf("recovery replayed no partitions: %+v", rep)
				}
				assertOracleMatch(t, fitted)
			})
		}
	}
}

// TestFaultDropAbsorbedByRetry: a dropped frame is a transient fault —
// the bounded redial-and-resend budget must absorb it without declaring
// the worker dead, and the result must still match the oracle exactly.
func TestFaultDropAbsorbedByRetry(t *testing.T) {
	chaosSetup(t)
	plan := NewFaultPlan(FaultRule{Op: opApply, Worker: 0, Nth: 1, Mode: FaultDrop})
	plan.OnSever = func(int) {}
	fitted, rep, err := chaosFit(t, plan)
	if err != nil {
		t.Fatalf("fit did not absorb a dropped frame: %v", err)
	}
	if len(plan.Events()) != 1 {
		t.Fatalf("drop did not fire: %+v", plan.Events())
	}
	if rep.Recoveries != 0 {
		t.Fatalf("transient drop escalated to a recovery: %+v", rep)
	}
	assertOracleMatch(t, fitted)
}

// TestFaultDelayTripsDeadline: an injected delay longer than the
// per-call deadline looks exactly like a hung worker — the deadline
// expires, the call is redialed and re-sent, and the worker stays live.
func TestFaultDelayTripsDeadline(t *testing.T) {
	chaosSetup(t)
	workers := make([]*Worker, 2)
	addrs := make([]string, 2)
	for i := range workers {
		w, err := StartWorker(WorkerOptions{Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		workers[i] = w
		addrs[i] = w.Addr()
	}
	plan := NewFaultPlan(FaultRule{Op: opApply, Worker: 0, Nth: 1, Mode: FaultDelay, Delay: 400 * time.Millisecond})
	cl, err := ConnectWith(ClusterOptions{
		Addrs:        addrs,
		OpTimeout:    100 * time.Millisecond,
		DialRetries:  2,
		RetryBackoff: 5 * time.Millisecond,
		Fault:        plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	fitted, rep, err := Fit(context.Background(), cl, chaosPipeline(), chaosTrain.Records, chaosTrain.Labels, FitOptions{
		Level:      keystone.LevelPipeline,
		Partitions: 4,
	})
	if err != nil {
		t.Fatalf("fit did not absorb the stalled call: %v", err)
	}
	if cl.LiveWorkers() != 2 {
		t.Fatalf("stalled-then-recovered worker was declared dead (%d live)", cl.LiveWorkers())
	}
	if rep.Recoveries != 0 {
		t.Fatalf("stall escalated to a recovery: %+v", rep)
	}
	assertOracleMatch(t, fitted)
}

// TestChaosAllWorkersDead kills worker 0 at its first apply, then
// worker 1 midway through the frames a clean fit sends it, with nothing
// left to fail over to — the fit must fail cleanly with no live workers
// rather than hang or panic. The kill ordinal is counted, not assumed:
// once worker 0 is gone, worker 1 gets every frame of the clean run and
// the replays besides, so the second kill is reached whatever the fit's
// frame sequence is.
func TestChaosAllWorkersDead(t *testing.T) {
	chaosSetup(t)
	counter := NewFaultPlan()
	counter.OnSever = func(int) {}
	if _, _, err := chaosFit(t, counter); err != nil {
		t.Fatalf("clean fit under counting plan: %v", err)
	}
	frames := counter.FrameCount("", 1)
	if frames < 2 {
		t.Fatalf("a clean fit sends worker 1 only %d frames", frames)
	}

	var workers []*Worker
	plan := NewFaultPlan(
		FaultRule{Op: opApply, Worker: 0, Nth: 1, Mode: FaultSever},
		FaultRule{Op: "", Worker: 1, Nth: (frames + 1) / 2, Mode: FaultSever},
	)
	plan.OnSever = func(i int) { workers[i].Close() }
	addrs := make([]string, 2)
	workers = make([]*Worker, 2)
	for i := range workers {
		w, err := StartWorker(WorkerOptions{Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		workers[i] = w
		addrs[i] = w.Addr()
	}
	cl, err := ConnectWith(ClusterOptions{
		Addrs:        addrs,
		OpTimeout:    time.Second,
		DialRetries:  1,
		RetryBackoff: 5 * time.Millisecond,
		Fault:        plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	_, _, err = Fit(context.Background(), cl, chaosPipeline(), chaosTrain.Records, chaosTrain.Labels, FitOptions{
		Level:      keystone.LevelPipeline,
		Partitions: 4,
	})
	if ev := plan.Events(); len(ev) != 2 {
		t.Fatalf("kills fired %d times, want 2: %+v", len(ev), ev)
	}
	if err == nil {
		t.Fatal("fit succeeded with every worker dead")
	}
	if cl.LiveWorkers() != 0 {
		t.Fatalf("%d workers still live after killing both", cl.LiveWorkers())
	}
}

// TestFitFrameSequence pins what a text fit sends each worker: the
// documents in one load, and one fetch back. The fused Figure 2
// estimator fits on the source, which the coordinator already holds, so
// that fetch can only be the featurised rows the solver needs — the
// documents never make the round trip.
func TestFitFrameSequence(t *testing.T) {
	chaosSetup(t)
	plan := NewFaultPlan()
	plan.OnSever = func(int) {}
	fitted, rep, err := chaosFit(t, plan)
	if err != nil {
		t.Fatal(err)
	}
	assertOracleMatch(t, fitted)
	if rep.Recoveries != 0 {
		t.Fatalf("clean fit recovered: %+v", rep)
	}
	for w := 0; w < 2; w++ {
		if got := plan.FrameCount(opLoad, w); got != 1 {
			t.Errorf("worker %d got %d load frames, want 1", w, got)
		}
		if got := plan.FrameCount(opFetch, w); got != 1 {
			t.Errorf("worker %d got %d fetch frames, want 1 (the featurised rows)", w, got)
		}
	}
}

// TestFaultEventsReplayable: two fits under identical plans fire the
// identical event sequence — the property that makes a chaos failure
// reproducible from its logged plan.
func TestFaultEventsReplayable(t *testing.T) {
	chaosSetup(t)
	run := func() []FaultEvent {
		plan := NewFaultPlan(
			FaultRule{Op: opApply, Worker: 0, Nth: 2, Mode: FaultDrop},
			FaultRule{Op: opFetch, Worker: 1, Nth: 1, Mode: FaultDrop},
		)
		plan.OnSever = func(int) {}
		fitted, _, err := chaosFit(t, plan)
		if err != nil {
			t.Fatalf("fit under replayable plan: %v", err)
		}
		assertOracleMatch(t, fitted)
		return plan.Events()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical plans fired different events:\n  run 1: %+v\n  run 2: %+v", a, b)
	}
}

// itoa avoids strconv for tiny positive subtest ordinals.
func itoa(n int) string {
	if n >= 10 {
		return itoa(n/10) + string(rune('0'+n%10))
	}
	return string(rune('0' + n))
}
