package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"keystoneml/keystone"
)

func fitTinyText(t *testing.T) (*keystone.Fitted[string, []float64], []string) {
	t.Helper()
	train := keystone.SyntheticReviews(100, 1)
	test := keystone.SyntheticReviews(20, 2)
	p := keystone.TextPipeline(keystone.TextConfig{NumFeatures: 400, Iterations: 5})
	f, err := p.Fit(context.Background(), train.Records, train.Labels,
		keystone.WithOptimizerLevel(keystone.LevelPipeline))
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	return f, test.Records
}

// TestBatcherCorrectness: every predict through the micro-batcher must
// return exactly what a direct Transform returns, under heavy
// concurrency (this is also a -race stress of the serving stack).
func TestBatcherCorrectness(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f, recs := fitTinyText(t)
	want := make([][]float64, len(recs))
	for i, r := range recs {
		w, err := f.Transform(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}

	b := newBatcher(f, 8, 5*time.Millisecond)
	defer b.close()

	const callers = 16
	const iters = 10
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	start := make(chan struct{})
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for it := 0; it < iters; it++ {
				i := (c*iters + it) % len(recs)
				got, err := b.predict(context.Background(), recs[i])
				if err != nil {
					errs <- err
					return
				}
				for j := range want[i] {
					if got[j] != want[i][j] {
						errs <- errors.New("batched prediction diverged from direct Transform")
						return
					}
				}
			}
		}(c)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := countsOf(b)
	if st.Records != callers*iters {
		t.Fatalf("served %d records, want %d", st.Records, callers*iters)
	}
	if st.Batches <= 0 || st.Batches > st.Records {
		t.Fatalf("implausible batch count %d for %d records", st.Batches, st.Records)
	}
	t.Logf("batches=%d records=%d largest=%d", st.Batches, st.Records, st.LargestBatch)
}

// TestBatcherCoalesces: a synchronized burst with a generous window must
// actually share batches (micro-batching, not one-by-one dispatch).
func TestBatcherCoalesces(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f, recs := fitTinyText(t)
	b := newBatcher(f, 16, 100*time.Millisecond)
	defer b.close()

	const burst = 12
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < burst; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			if _, err := b.predict(context.Background(), recs[c%len(recs)]); err != nil {
				t.Errorf("predict: %v", err)
			}
		}(c)
	}
	close(start)
	wg.Wait()
	if st := countsOf(b); st.LargestBatch < 2 {
		t.Fatalf("burst of %d never coalesced (largest batch %d)", burst, st.LargestBatch)
	}
}

// TestBatcherClose: after close, predict fails with ErrRouteClosed and
// does not hang.
func TestBatcherClose(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f, recs := fitTinyText(t)
	b := newBatcher(f, 4, time.Millisecond)
	b.close()
	if _, err := b.predict(context.Background(), recs[0]); !errors.Is(err, ErrRouteClosed) {
		t.Fatalf("want ErrRouteClosed, got %v", err)
	}
}

// counts is a point-in-time read of a batcher's counters.
type counts struct{ Batches, Records, Failed, LargestBatch, InFlight int64 }

func countsOf[I, O any](b *batcher[I, O]) counts {
	return counts{b.batches.Load(), b.records.Load(), b.failed.Load(), b.largest.Load(), b.inflight.Load()}
}

// atProcs runs fn as subtests pinned to single-proc and multi-proc
// schedules: on one proc the races are ordering bugs, on four they are
// true data races — the batcher must survive both.
func atProcs(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			old := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(old)
			fn(t)
		})
	}
}

// fitFn fits a trivial single-op pipeline for batcher plumbing tests —
// no estimator, no optimizer work, so the races dominate the runtime.
func fitFn(t *testing.T, name string, fn func(float64) []float64) *keystone.Fitted[float64, []float64] {
	t.Helper()
	p := keystone.Input[float64]()
	out := keystone.Then(p, keystone.NewOp(name, fn))
	f, err := out.Fit(context.Background(), []float64{1}, nil, keystone.WithOptimizerLevel(keystone.LevelNone))
	if err != nil {
		t.Fatalf("fit %s: %v", name, err)
	}
	return f
}

// TestBatcherCloseUnderLoad: close racing a storm of concurrent predict
// callers must neither hang nor panic; every call resolves to a result
// or ErrRouteClosed, and close returns only after in-flight flushes
// delivered.
func TestBatcherCloseUnderLoad(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		f := fitFn(t, "spin", func(x float64) []float64 {
			time.Sleep(200 * time.Microsecond)
			return []float64{x}
		})
		b := newBatcher(f, 4, 500*time.Microsecond)
		const callers = 8
		var wg sync.WaitGroup
		var served, closed atomic.Int64
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					out, err := b.predict(context.Background(), float64(i))
					switch {
					case err == nil:
						if len(out) != 1 || out[0] != float64(i) {
							t.Errorf("wrong result %v for %d", out, i)
							return
						}
						served.Add(1)
					case errors.Is(err, ErrRouteClosed):
						closed.Add(1)
						return
					default:
						t.Errorf("unexpected error: %v", err)
						return
					}
				}
			}()
		}
		time.Sleep(20 * time.Millisecond)
		b.close()
		wg.Wait()
		if closed.Load() != callers {
			t.Fatalf("%d callers saw ErrRouteClosed, want %d", closed.Load(), callers)
		}
		if served.Load() == 0 {
			t.Fatal("no requests served before Close")
		}
		// close is idempotent for predict: still ErrRouteClosed.
		if _, err := b.predict(context.Background(), 1); !errors.Is(err, ErrRouteClosed) {
			t.Fatalf("post-Close Predict = %v", err)
		}
	})
}

// TestBatcherAbandonMidQueue: callers whose contexts die while queued are
// dropped before the pipeline runs — the flush serves only the survivors
// and the records counter proves the dead ones never executed.
func TestBatcherAbandonMidQueue(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		f := fitFn(t, "echo", func(x float64) []float64 { return []float64{x} })
		// A wide-open window so requests sit queued until it expires.
		b := newBatcher(f, 16, 120*time.Millisecond)
		defer b.close()

		ctx, cancel := context.WithCancel(context.Background())
		var abandoned sync.WaitGroup
		for i := 0; i < 3; i++ {
			abandoned.Add(1)
			go func(i int) {
				defer abandoned.Done()
				if _, err := b.predict(ctx, float64(100+i)); !errors.Is(err, context.Canceled) {
					t.Errorf("abandoned caller got %v, want Canceled", err)
				}
			}(i)
		}
		time.Sleep(10 * time.Millisecond) // let them enqueue into the open batch
		cancel()

		out, err := b.predict(context.Background(), 7)
		if err != nil || out[0] != 7 {
			t.Fatalf("surviving caller got %v, %v", out, err)
		}
		abandoned.Wait()
		if st := countsOf(b); st.Records != 1 {
			t.Fatalf("pipeline executed %d records, want 1 (abandoned requests must be dropped)", st.Records)
		}
	})
}

// TestBatcherOverlappingFlush: with one batch stalled inside the
// pipeline, the loop must keep assembling and flushing subsequent
// batches — the old synchronous flush head-of-line-blocked here.
func TestBatcherOverlappingFlush(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		gate := make(chan struct{})
		entered := make(chan struct{}, 1)
		// Sentinel 42 is absent from the training data, so Fit itself
		// never trips the gate.
		f := fitFn(t, "gated", func(x float64) []float64 {
			if x == 42 {
				entered <- struct{}{}
				<-gate
			}
			return []float64{x}
		})
		b := newBatcher(f, 1, 100*time.Microsecond)
		defer b.close()

		stalled := make(chan error, 1)
		go func() {
			_, err := b.predict(context.Background(), 42)
			stalled <- err
		}()
		<-entered // batch 1 now occupies a flush slot

		// Batch 2 must complete while batch 1 is still executing.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		out, err := b.predict(ctx, 2)
		if err != nil {
			t.Fatalf("second batch did not overlap the stalled first: %v", err)
		}
		if out[0] != 2 {
			t.Fatalf("second batch result %v", out)
		}
		close(gate)
		if err := <-stalled; err != nil {
			t.Fatalf("stalled batch failed: %v", err)
		}
	})
}

// TestBatcherSetLimitsLive: retargeting limits mid-traffic takes effect
// on subsequent batches and never disrupts service. (Route-level
// defaults are resolved by Register; TestRegisterLimitDefaults pins them.)
func TestBatcherSetLimitsLive(t *testing.T) {
	f := fitFn(t, "echo2", func(x float64) []float64 { return []float64{x} })
	b := newBatcher(f, 4, time.Millisecond)
	defer b.close()
	if _, err := b.predict(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	b.setLimits(64, 3*time.Millisecond)
	if mb, md := b.limits(); mb != 64 || md != 3*time.Millisecond {
		t.Fatalf("limits() = (%d, %v) after setLimits", mb, md)
	}
	if _, err := b.predict(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	b.setLimits(defaultMaxBatch, 0) // 0 delay is "no linger"
	if _, err := b.predict(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if snap := b.window.snapshot(); snap.Samples < 3 {
		t.Fatalf("latency window recorded %d samples, want >= 3", snap.Samples)
	}
}

// TestBatcherCallerCancel: a predict whose context dies while queued
// returns the context error.
func TestBatcherCallerCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f, recs := fitTinyText(t)
	// A huge delay window so the request sits queued until the context
	// fires.
	b := newBatcher(f, 64, time.Minute)
	defer b.close()
	// Occupy the window with one live request so the loop is waiting.
	go b.predict(context.Background(), recs[0])
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := b.predict(ctx, recs[1]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

// TestBatcherQueueDepthAndThroughput: queueDepth reflects requests
// queued ahead of assembly, and the latency window reports a positive
// serving rate once traffic flows — the two signals admission control
// and the multi-objective tuner consume.
func TestBatcherQueueDepthAndThroughput(t *testing.T) {
	slow := keystone.Then(keystone.Input[int](), keystone.NewOp("sleepy", func(x int) []float64 {
		time.Sleep(2 * time.Millisecond)
		return []float64{float64(x)}
	}))
	f, err := slow.Fit(context.Background(), []int{1}, nil, keystone.WithOptimizerLevel(keystone.LevelNone))
	if err != nil {
		t.Fatal(err)
	}
	b := newBatcher(f, 1, 100*time.Microsecond)
	defer b.close()

	if d := b.queueDepth(); d != 0 {
		t.Fatalf("idle QueueDepth = %d, want 0", d)
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.predict(context.Background(), i); err != nil {
				t.Errorf("predict %d: %v", i, err)
			}
		}(i)
	}
	// With 1-record batches at 2ms each and 32 concurrent callers, the
	// queue must be observably non-empty at some point.
	deepSeen := false
	for i := 0; i < 200 && !deepSeen; i++ {
		if b.queueDepth() > 0 {
			deepSeen = true
		}
		time.Sleep(500 * time.Microsecond)
	}
	wg.Wait()
	if !deepSeen {
		t.Error("QueueDepth never observed a queued request under a 32-caller flood")
	}
	if snap := b.window.snapshot(); snap.Throughput <= 0 {
		t.Errorf("window Throughput = %v after 32 served requests, want > 0", snap.Throughput)
	}
}

// TestBatcherErrorPathObservations is the tuner-starvation regression:
// a failing batch must still feed the latency window (the request took
// real wall-clock time) and bump the failure counter — previously a run
// of errors left the window empty and the SLO autotuner blind.
func TestBatcherErrorPathObservations(t *testing.T) {
	f := fitFn(t, "echofail", func(x float64) []float64 { return []float64{x} })
	// A Fitted whose O lies about the pipeline's output type: every
	// TransformBatch fails the r.(O) assertion, which is exactly the
	// all-batches-error regime the window must survive.
	bad := keystone.NewEngineFitted[float64, string](f.Engine(), keystone.FitInfo{})
	b := newBatcher(bad, 4, time.Millisecond)
	defer b.close()

	const n = 6
	for i := 0; i < n; i++ {
		if _, err := b.predict(context.Background(), float64(i)); err == nil {
			t.Fatal("predict through the type-lying pipeline must error")
		}
	}
	if snap := b.window.snapshot(); snap.Samples != n {
		t.Fatalf("latency window holds %d samples after %d failed predicts, want %d (error-path starvation)", snap.Samples, n, n)
	}
	st := countsOf(b)
	if st.Failed != n {
		t.Fatalf("failed = %d after %d failed records, want %d", st.Failed, n, n)
	}
	if st.Records != n {
		t.Fatalf("records = %d, want %d", st.Records, n)
	}
}

// TestBatcherBatchContext pins the derived batch context: it cancels
// once every watched caller is gone, and never cancels while a
// non-cancelable caller remains.
func TestBatcherBatchContext(t *testing.T) {
	f := fitFn(t, "echoctx", func(x float64) []float64 { return []float64{x} })
	b := newBatcher(f, 4, time.Millisecond)
	defer b.close()

	waitDone := func(ctx context.Context) bool {
		select {
		case <-ctx.Done():
			return true
		case <-time.After(time.Second):
			return false
		}
	}
	stillLive := func(ctx context.Context) bool {
		select {
		case <-ctx.Done():
			return false
		case <-time.After(30 * time.Millisecond):
			return true
		}
	}

	t.Run("cancels when all callers leave", func(t *testing.T) {
		ctx1, cancel1 := context.WithCancel(context.Background())
		ctx2, cancel2 := context.WithCancel(context.Background())
		defer cancel2()
		bctx, cancel := batchContext([]batchReq[float64, []float64]{{ctx: ctx1}, {ctx: ctx2}})
		defer cancel()
		cancel1()
		if !stillLive(bctx) {
			t.Fatal("batch context died while one caller was still live")
		}
		cancel2()
		if !waitDone(bctx) {
			t.Fatal("batch context did not cancel after every caller left")
		}
	})

	t.Run("pinned by a non-cancelable caller", func(t *testing.T) {
		ctx1, cancel1 := context.WithCancel(context.Background())
		bctx, cancel := batchContext([]batchReq[float64, []float64]{
			{ctx: ctx1}, {ctx: context.Background()},
		})
		defer cancel()
		cancel1()
		if !stillLive(bctx) {
			t.Fatal("batch context canceled despite a non-cancelable caller in the batch")
		}
	})

	t.Run("cancel releases watchers", func(t *testing.T) {
		ctx1, cancel1 := context.WithCancel(context.Background())
		defer cancel1()
		bctx, cancel := batchContext([]batchReq[float64, []float64]{{ctx: ctx1}})
		cancel() // the TransformBatch-returned path
		if !waitDone(bctx) {
			t.Fatal("explicit cancel did not close the batch context")
		}
	})
}

// TestBatcherAbandonedBatchCancelsPipeline: when every caller of an
// executing batch disconnects, the derived context must abort the
// pipeline work instead of burning it to completion for nobody.
func TestBatcherAbandonedBatchCancelsPipeline(t *testing.T) {
	entered := make(chan struct{}, 1)
	f := fitFn(t, "slowpoke", func(x float64) []float64 {
		select {
		case entered <- struct{}{}:
		default:
		}
		time.Sleep(2 * time.Millisecond)
		return []float64{x}
	})
	// Large enough that TransformBatch takes the fan-out path, which
	// checks the context between records; all callers share one context
	// and abandon together mid-execution.
	const n = 80
	b := newBatcher(f, n, 50*time.Millisecond)
	defer b.close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var canceled atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.predict(ctx, float64(i)); errors.Is(err, context.Canceled) {
				canceled.Add(1)
			}
		}(i)
	}
	<-entered // the batch is executing
	start := time.Now()
	cancel()
	wg.Wait()
	elapsed := time.Since(start)
	if canceled.Load() != n {
		t.Fatalf("%d callers saw Canceled, want %d", canceled.Load(), n)
	}
	// 80 records at 2ms each is 160ms of serial work; an aborted batch
	// unwinds much sooner. The bound is loose to stay robust on slow CI.
	if elapsed > 120*time.Millisecond {
		t.Errorf("abandoned batch took %v to unwind, want prompt cancellation", elapsed)
	}
}

// TestBatcherQueueDepthCountsAssembly is the under-count regression:
// requests pulled out of the channel into the forming batch must still
// show in queueDepth, or admission's queue watermark misses up to
// maxBatch-1 waiting requests.
func TestBatcherQueueDepthCountsAssembly(t *testing.T) {
	f := fitFn(t, "echodepth", func(x float64) []float64 { return []float64{x} })
	// Window far longer than the observation loop: the three requests sit
	// in the forming batch (not the channel) the whole time.
	b := newBatcher(f, 8, 300*time.Millisecond)
	defer b.close()

	if d := b.queueDepth(); d != 0 {
		t.Fatalf("idle QueueDepth = %d, want 0", d)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.predict(context.Background(), float64(i)); err != nil {
				t.Errorf("predict: %v", err)
			}
		}(i)
	}
	// The loop drains the channel into the assembling batch almost
	// immediately; from then until the window expires the channel is
	// empty and only the assembling counter can report the three waiters.
	seen := false
	deadline := time.Now().Add(250 * time.Millisecond)
	for time.Now().Before(deadline) {
		if len(b.reqs) == 0 && b.queueDepth() == 3 {
			seen = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !seen {
		t.Fatal("QueueDepth never reported the 3 in-assembly requests (channel-only count)")
	}
	wg.Wait()
	// Settled: assembly handed off and completed, depth returns to zero.
	deadline = time.Now().Add(time.Second)
	for time.Now().Before(deadline) && b.queueDepth() != 0 {
		time.Sleep(time.Millisecond)
	}
	if d := b.queueDepth(); d != 0 {
		t.Fatalf("QueueDepth = %d after all requests served, want 0", d)
	}
}

// eventually polls cond for up to 5s — the tests below synchronise on
// gates and counters, never on a sleep being long enough.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("never observed: %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestBatcherIdleDispatch: an idle pipeline dispatches a lone request the
// moment it arrives. A batcher that waits out any assembly window spends
// at least that window per sequential request (200ms here at the old 2ms
// default); a work-conserving one spends only the transform.
func TestBatcherIdleDispatch(t *testing.T) {
	f := fitFn(t, "echoidle", func(x float64) []float64 { return []float64{x} })
	b := newBatcher(f, defaultMaxBatch, 0)
	defer b.close()
	const n = 100
	start := time.Now()
	for i := 0; i < n; i++ {
		if out, err := b.predict(context.Background(), float64(i)); err != nil || out[0] != float64(i) {
			t.Fatalf("predict %d = %v, %v", i, out, err)
		}
	}
	if elapsed := time.Since(start); elapsed >= 100*time.Millisecond {
		t.Errorf("%d sequential predicts on an idle pipeline took %v, want < 100ms (no per-request wait)", n, elapsed)
	}
	if st := countsOf(b); st.Batches != n || st.Records != n {
		t.Errorf("batches=%d records=%d, want %d lone dispatches", st.Batches, st.Records, n)
	}
}

// TestBatcherNaturalBatching: with no linger at all, batches still form —
// from back-pressure. 32 callers meet a pipeline that takes 1ms per
// record and has two execution slots, so whatever queues while the slots
// are busy leaves together.
func TestBatcherNaturalBatching(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		f := fitFn(t, "onems", func(x float64) []float64 {
			time.Sleep(time.Millisecond) // service time, not synchronisation
			return []float64{x}
		})
		b := newBatcher(f, defaultMaxBatch, 0)
		defer b.close()
		if mb, md := b.limits(); mb != 32 || md != 0 {
			t.Fatalf("limits = (%d, %v), want (32, 0)", mb, md)
		}
		const callers = 32
		start := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				if out, err := b.predict(context.Background(), float64(c)); err != nil || out[0] != float64(c) {
					t.Errorf("predict %d = %v, %v", c, out, err)
				}
			}(c)
		}
		close(start)
		wg.Wait()
		st := countsOf(b)
		if st.Records != callers || st.LargestBatch < 2 || st.Batches >= st.Records {
			t.Fatalf("batches=%d records=%d largest=%d: a busy pipeline must batch what queued behind it",
				st.Batches, st.Records, st.LargestBatch)
		}
	})
}

// stalledBatcher is a default-maxBatch batcher whose execution slots are
// all held by requests parked inside the pipeline, so the test decides
// when a slot frees up. Record -(i+1) parks until release(i); every other
// record goes to fn.
type stalledBatcher struct {
	b      *batcher[float64, []float64]
	gates  [flushOverlap]chan struct{}
	open   [flushOverlap]sync.Once
	parked chan error // one result per parked request, as it resolves
}

func newStalledBatcher(t *testing.T, name string, maxDelay time.Duration, fn func(float64) []float64) *stalledBatcher {
	t.Helper()
	sb := &stalledBatcher{parked: make(chan error, flushOverlap)}
	for i := range sb.gates {
		sb.gates[i] = make(chan struct{})
	}
	entered := make(chan struct{})
	f := fitFn(t, name, func(x float64) []float64 {
		if x < 0 {
			entered <- struct{}{}
			<-sb.gates[int(-x)-1]
			return []float64{x}
		}
		return fn(x)
	})
	sb.b = newBatcher(f, defaultMaxBatch, maxDelay)
	// A failed test must still unpark the pipeline, or close waits forever.
	t.Cleanup(func() {
		for i := range sb.gates {
			sb.release(i)
		}
		sb.b.close()
	})
	for i := range sb.gates {
		go func(x float64) {
			_, err := sb.b.predict(context.Background(), x)
			sb.parked <- err
		}(float64(-(i + 1)))
		<-entered
	}
	return sb
}

// release lets the request holding slot i finish.
func (sb *stalledBatcher) release(i int) {
	sb.open[i].Do(func() { close(sb.gates[i]) })
}

// drain releases every slot and checks the parked requests were served.
func (sb *stalledBatcher) drain(t *testing.T) {
	t.Helper()
	for i := range sb.gates {
		sb.release(i)
		if err := <-sb.parked; err != nil {
			t.Errorf("parked request failed: %v", err)
		}
	}
}

// TestBatcherGrowsWhileBlocked: a batch waiting for an execution slot
// keeps absorbing arrivals, and closes only when the slot is acquired.
// Ten requests queue behind two stalled slots; one slot frees; they leave
// as one batch of ten. An expired linger changes nothing about that: the
// 1ns case is a batch sealed at its timer tick in the old loop, which
// then parked on the slot with the one record it had.
func TestBatcherGrowsWhileBlocked(t *testing.T) {
	for _, linger := range []time.Duration{0, time.Nanosecond} {
		t.Run(fmt.Sprint("linger=", linger), func(t *testing.T) { testGrowsWhileBlocked(t, linger) })
	}
}

func testGrowsWhileBlocked(t *testing.T, linger time.Duration) {
	atProcs(t, func(t *testing.T) {
		sb := newStalledBatcher(t, "grow", linger, func(x float64) []float64 { return []float64{x} })
		const queued = 10
		results := make(chan error, queued)
		for i := 0; i < queued; i++ {
			go func(i int) {
				out, err := sb.b.predict(context.Background(), float64(i))
				if err == nil && out[0] != float64(i) {
					err = fmt.Errorf("predict %d = %v", i, out)
				}
				results <- err
			}(i)
		}
		eventually(t, "all queued requests absorbed into the forming batch", func() bool {
			return sb.b.assembling.Load() == queued && len(sb.b.reqs) == 0
		})
		if d := sb.b.queueDepth(); d != queued {
			t.Errorf("QueueDepth = %d while %d requests wait for a slot", d, queued)
		}
		sb.release(0)
		for i := 0; i < queued; i++ {
			if err := <-results; err != nil {
				t.Error(err)
			}
		}
		sb.drain(t)
		if st := countsOf(sb.b); st.LargestBatch != queued || st.Batches != flushOverlap+1 || st.Records != flushOverlap+queued {
			t.Fatalf("batches=%d records=%d largest=%d, want the %d queued requests in one batch",
				st.Batches, st.Records, st.LargestBatch, queued)
		}
	})
}

// TestBatcherSoloPath: a batch of one runs Transform under its caller's
// own context. Same result, same accounting as any batch, the caller's
// own cancellation error — and no helper goroutine per request.
func TestBatcherSoloPath(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		entered, gate := make(chan struct{}), make(chan struct{})
		f := fitFn(t, "sologate", func(x float64) []float64 {
			if x == 42 {
				entered <- struct{}{}
				<-gate
			}
			return []float64{x, 2 * x}
		})
		b := newBatcher(f, defaultMaxBatch, 0)
		defer b.close()

		want, err := f.Transform(context.Background(), 7)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.predict(context.Background(), 7)
		if err != nil || len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("solo Predict = %v, %v; Transform = %v", got, err, want)
		}
		if st := countsOf(b); st.Batches != 1 || st.Records != 1 || st.LargestBatch != 1 || st.Failed != 0 {
			t.Fatalf("stats after one solo request: %+v", st)
		}
		if snap := b.window.snapshot(); snap.Samples != 1 || snap.Batches != 1 || snap.MeanOccupancy != 1.0/defaultMaxBatch {
			t.Fatalf("latency window after one solo request: %+v", snap)
		}
		eventually(t, "first request left flight", func() bool { return countsOf(b).InFlight == 0 })

		// A cancelable caller (every HTTP request is one) parked inside
		// the pipeline: the request has added its caller and its flush,
		// and nothing else — no derived context, no watcher.
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		res := make(chan error, 1)
		go func() {
			_, err := b.predict(ctx, 42)
			res <- err
		}()
		<-entered
		if n := runtime.NumGoroutine(); n > base+2 {
			t.Errorf("a solo request in flight runs %d goroutines over the %d idle ones, want <= 2 (caller + flush)", n-base, base)
		}
		if st := countsOf(b); st.InFlight != 1 || b.queueDepth() != 0 {
			t.Errorf("executing solo request: InFlight=%d QueueDepth=%d, want 1, 0", st.InFlight, b.queueDepth())
		}
		cancel()
		if err := <-res; !errors.Is(err, context.Canceled) {
			t.Errorf("caller cancelled mid-transform got %v, want its own context.Canceled", err)
		}
		close(gate)
		eventually(t, "abandoned solo request accounted for", func() bool {
			st := countsOf(b)
			return st.Batches == 2 && st.Records == 2 && st.InFlight == 0
		})
		if snap := b.window.snapshot(); snap.Samples != 2 {
			t.Errorf("latency window holds %d samples after 2 solo requests", snap.Samples)
		}
	})
}

// TestBatcherContainsPipelinePanic: an operator that panics on a
// malformed record fails the batch it was in — delivered as an error,
// counted, observed — and nothing else. The flush goroutine is not a
// place a panic may escape from: nothing above it recovers, so it would
// end the process.
func TestBatcherContainsPipelinePanic(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		sb := newStalledBatcher(t, "poison", 0, func(x float64) []float64 {
			v := []float64{x}
			if x == 13 {
				return []float64{v[3]} // index out of range
			}
			return v
		})

		// Batch path: the poison record and two neighbours queue behind
		// the stalled slots and leave as one batch.
		errs := make(chan error, 3)
		for _, x := range []float64{13, 1, 2} {
			go func(x float64) {
				_, err := sb.b.predict(context.Background(), x)
				errs <- err
			}(x)
		}
		eventually(t, "poisoned batch assembled", func() bool { return sb.b.assembling.Load() == 3 })
		sb.release(0)
		for i := 0; i < 3; i++ {
			if err := <-errs; err == nil || errors.Is(err, ErrRouteClosed) {
				t.Errorf("caller in the panicking batch got %v, want the recovered panic as an error", err)
			}
		}
		sb.drain(t)

		// Solo path, then proof of life.
		if _, err := sb.b.predict(context.Background(), 13); err == nil {
			t.Error("solo poison record returned no error")
		}
		if out, err := sb.b.predict(context.Background(), 5); err != nil || out[0] != 5 {
			t.Fatalf("good request after the panics = %v, %v", out, err)
		}
		const served = flushOverlap + 3 + 1 + 1
		if st := countsOf(sb.b); st.Failed != 4 || st.Records != served {
			t.Errorf("failed=%d records=%d, want 4 of %d", st.Failed, st.Records, served)
		}
		if snap := sb.b.window.snapshot(); snap.Samples != served {
			t.Errorf("latency window holds %d samples, want %d (failures are observed too)", snap.Samples, served)
		}
	})
}
