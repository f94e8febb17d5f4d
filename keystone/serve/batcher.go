package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"keystoneml/keystone"
)

const (
	defaultMaxBatch = 32
	// defaultMaxDelay is the linger of a route whose caller set none: the
	// shortest one the Go runtime delivers as asked (on an idle P it rounds
	// a shorter timer up to a millisecond). It keeps an unconfigured
	// route's closed-loop throughput paced by the clock rather than by the
	// CPU; maxDelay 0 takes the clock out.
	defaultMaxDelay = time.Millisecond
	// batcherQueueDepth bounds requests queued ahead of batch assembly;
	// beyond it predict callers block (back-pressure) until the loop
	// drains or their context fires.
	batcherQueueDepth = 256
	// flushOverlap bounds how many batches may execute in the pipeline
	// simultaneously. With 1 the old head-of-line behaviour returns: a
	// slow batch blocks the next from forming. With 2+ the assembly loop
	// keeps collecting while earlier batches execute.
	flushOverlap = 2
	// latWindowSize is the ring capacity of the latency/occupancy window;
	// sized so p95 has resolution without unbounded memory.
	latWindowSize = 256
)

// batcher is one version's micro-batcher: it coalesces concurrent
// single-record predict calls into TransformBatch invocations while
// callers keep a one-record-at-a-time API. ARCHITECTURE.md's serve
// request lifecycle states the batching contract; in short:
//
//   - It is work-conserving: a batch closes at the instant an execution
//     slot is acquired, never at a timer tick, so a busy pipeline keeps
//     absorbing arrivals (up to maxBatch) for as long as it waits for one.
//   - Linger is a separate, removable term: with maxDelay > 0 a batch that
//     is not yet full waits out maxDelay after its first record before it
//     may take a slot. With maxDelay 0 batches are exactly what queued
//     while the pipeline was busy, and an idle pipeline dispatches the
//     first request with zero wait.
//   - Up to flushOverlap batches execute at once, so a slow batch does not
//     head-of-line-block the next one. A batch of one runs Transform under
//     its caller's own context; a pipeline panic fails the batch it was
//     part of, not the process.
//
// Limits arrive resolved (the route decodes WithBatchLimits and the SLO
// clamp once, at Register) and setLimits retargets them live for the
// autotuner. The counters and the latency window are read directly by the
// route's stats, admission and tuner. A batcher is closed exactly once, by
// Route.retire, after its version's gate has drained — so no caller ever
// meets a closed one through the route.
type batcher[I, O any] struct {
	fitted *keystone.Fitted[I, O]

	maxBatch atomic.Int64
	maxDelay atomic.Int64 // nanoseconds

	reqs       chan batchReq[I, O]
	quit       chan struct{}
	flushSlots chan struct{}
	wg         sync.WaitGroup

	batches  atomic.Int64 // flushed batches
	records  atomic.Int64 // records served through batches
	failed   atomic.Int64 // records whose batch execution returned an error
	largest  atomic.Int64 // largest batch observed
	inflight atomic.Int64 // records currently executing
	// assembling counts requests pulled off reqs into the batch the loop
	// is currently forming — invisible to len(reqs) but still queued
	// latency from the caller's perspective.
	assembling atomic.Int64

	window latWindow
}

type batchReq[I, O any] struct {
	ctx  context.Context
	rec  I
	enq  time.Time
	resp chan batchResp[O]
}

type batchResp[O any] struct {
	out O
	err error
}

// newBatcher starts a batcher over f with resolved limits: maxBatch >= 1,
// maxDelay >= 0 (0 = no linger).
func newBatcher[I, O any](f *keystone.Fitted[I, O], maxBatch int, maxDelay time.Duration) *batcher[I, O] {
	b := &batcher[I, O]{
		fitted:     f,
		reqs:       make(chan batchReq[I, O], batcherQueueDepth),
		quit:       make(chan struct{}),
		flushSlots: make(chan struct{}, flushOverlap),
	}
	b.setLimits(maxBatch, maxDelay)
	b.wg.Add(1)
	go b.loop()
	return b
}

// setLimits retargets the batch assembly limits; the next batch to form
// observes them. Safe to call concurrently with serving traffic.
func (b *batcher[I, O]) setLimits(maxBatch int, maxDelay time.Duration) {
	b.maxBatch.Store(int64(maxBatch))
	b.maxDelay.Store(int64(maxDelay))
}

// limits returns the current (maxBatch, maxDelay) targets.
func (b *batcher[I, O]) limits() (int, time.Duration) {
	return int(b.maxBatch.Load()), time.Duration(b.maxDelay.Load())
}

// queueDepth reports how many requests are queued ahead of batch
// assembly right now, including records already pulled into the batch
// being assembled (they have left the channel but are still waiting).
// It is the signal admission's high-watermark shedder reads.
func (b *batcher[I, O]) queueDepth() int {
	return len(b.reqs) + int(b.assembling.Load())
}

// predict runs one record through the pipeline, transparently sharing a
// batch with concurrent callers. It honors ctx while queued; once its
// batch starts executing the result is computed regardless (and discarded
// if the caller has gone).
func (b *batcher[I, O]) predict(ctx context.Context, rec I) (O, error) {
	var zero O
	if ctx == nil {
		ctx = context.Background()
	}
	req := batchReq[I, O]{ctx: ctx, rec: rec, enq: time.Now(), resp: make(chan batchResp[O], 1)}
	select {
	case b.reqs <- req:
	case <-ctx.Done():
		return zero, ctx.Err()
	case <-b.quit:
		return zero, ErrRouteClosed
	}
	select {
	case r := <-req.resp:
		return r.out, r.err
	case <-ctx.Done():
		return zero, ctx.Err()
	case <-b.quit:
		return zero, ErrRouteClosed
	}
}

// close stops the batch loop and waits for in-flight flushes to finish
// delivering. Requests still queued fail with ErrRouteClosed.
func (b *batcher[I, O]) close() {
	close(b.quit)
	b.wg.Wait()
}

// statsInto writes the batcher's counters, limits and latency window
// under the route's /stats keys.
func (b *batcher[I, O]) statsInto(out map[string]any) {
	out["batches"] = b.batches.Load()
	out["records"] = b.records.Load()
	out["largest_batch"] = b.largest.Load()
	out["in_flight"] = b.inflight.Load()
	maxBatch, maxDelay := b.limits()
	out["max_batch"] = maxBatch
	out["max_delay_ms"] = durMS(maxDelay)
	snap := b.window.snapshot()
	out["latency_p50_ms"] = durMS(snap.P50)
	out["latency_p95_ms"] = durMS(snap.P95)
	out["window_samples"] = snap.Samples
	out["mean_occupancy"] = snap.MeanOccupancy
	out["throughput_rps"] = snap.Throughput
	out["queue_depth"] = b.queueDepth()
}

// loop assembles and dispatches batches with one work-conserving select
// per event: absorb another request (while the batch has room), let the
// linger expire, or take a free execution slot — which is what
// closes the batch. The slot case is armed only once the batch may leave:
// it is full, or it never lingered, or its linger has expired.
func (b *batcher[I, O]) loop() {
	defer b.wg.Done()
	var (
		batch    []batchReq[I, O] // the batch being assembled; nil between batches
		maxBatch int              // limit the current batch formed under
		timer    *time.Timer      // linger timer of the current batch, if it has one
		linger   <-chan time.Time // timer.C until the linger expires, then nil
	)
	for {
		more := b.reqs
		var slot chan struct{}
		if len(batch) > 0 {
			if len(batch) >= maxBatch {
				more = nil
			}
			if linger == nil || len(batch) >= maxBatch {
				slot = b.flushSlots
			}
		}
		select {
		case r := <-more:
			if len(batch) == 0 {
				var maxDelay time.Duration
				maxBatch, maxDelay = b.limits()
				if maxDelay > 0 {
					timer = time.NewTimer(maxDelay)
					linger = timer.C
				}
			}
			batch = append(batch, r)
			// Counted as assembling until handed off: a slot wait is
			// still queued latency.
			b.assembling.Add(1)
		case <-linger:
			linger = nil
		case slot <- struct{}{}:
			if timer != nil {
				timer.Stop()
				timer, linger = nil, nil
			}
			b.assembling.Add(-int64(len(batch)))
			b.wg.Add(1)
			go func(batch []batchReq[I, O], capacity int) {
				defer b.wg.Done()
				defer func() { <-b.flushSlots }()
				b.flush(batch, capacity)
			}(batch, maxBatch)
			batch = nil
		case <-b.quit:
			if timer != nil {
				timer.Stop()
			}
			b.assembling.Add(-int64(len(batch)))
			for _, r := range batch {
				r.resp <- batchResp[O]{err: ErrRouteClosed}
			}
			return
		}
	}
}

// flush executes one batch and fans results back to the waiters.
// Requests whose callers abandoned ship while queued are dropped before
// the pipeline runs. capacity is the maxBatch limit the batch was
// assembled under, for the occupancy observation.
func (b *batcher[I, O]) flush(batch []batchReq[I, O], capacity int) {
	live := batch[:0]
	for _, r := range batch {
		if r.ctx.Err() == nil {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return
	}
	n := int64(len(live))
	b.inflight.Add(n)
	defer b.inflight.Add(-n)
	solo, outs, err := b.execute(live)
	b.batches.Add(1)
	b.records.Add(n)
	for {
		cur := b.largest.Load()
		if n <= cur || b.largest.CompareAndSwap(cur, n) {
			break
		}
	}
	if err != nil {
		b.failed.Add(n)
	}
	// Latency is observed on success and failure alike: an erroring
	// batch still took wall-clock time the SLO tuner must see, or a
	// run of failures starves the window and tuning stops adapting.
	now := time.Now()
	b.window.mu.Lock()
	for _, r := range live {
		b.window.addLatency(now, now.Sub(r.enq))
	}
	b.window.addOccupancy(float64(n) / float64(capacity))
	b.window.mu.Unlock()
	for i, r := range live {
		resp := batchResp[O]{out: solo, err: err}
		if outs != nil {
			resp.out = outs[i]
		}
		r.resp <- resp
	}
}

// execute runs a batch's live requests through the pipeline. A single
// request takes Transform under its caller's own context and returns its
// output in solo — no batch slices, derived context or watcher goroutines
// for the common idle-pipeline case. Two or more take TransformBatch under
// a context that stays live only as long as at least one caller does: if
// every caller disconnects mid-execution, the pipeline work is canceled
// instead of burning to completion for nobody.
//
// flush runs on its own goroutine, where an operator panic on a malformed
// record would take the whole process down, so recoverPipeline turns it
// into the batch's error.
func (b *batcher[I, O]) execute(live []batchReq[I, O]) (solo O, outs []O, err error) {
	defer recoverPipeline(&err)
	if len(live) == 1 {
		solo, err = b.fitted.Transform(live[0].ctx, live[0].rec)
		return solo, nil, err
	}
	recs := make([]I, len(live))
	for i, r := range live {
		recs[i] = r.rec
	}
	ctx, cancel := batchContext(live)
	defer cancel()
	outs, err = b.fitted.TransformBatch(ctx, recs)
	return solo, outs, err
}

// recoverPipeline is the serving tier's one panic boundary, deferred by
// every path that runs a pipeline on a request's behalf: a panic in an
// operator becomes the error its callers see instead of a dead process
// or a dropped connection.
func recoverPipeline(err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("keystone: pipeline panicked: %v", p)
	}
}

// batchContext derives the context a batch executes under from the live
// requests' contexts: it cancels once every watched caller has gone. A
// request with a non-cancelable context (Done() == nil) pins the batch
// alive, so no watchers are spawned at all in that common case.
func batchContext[I, O any](live []batchReq[I, O]) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	watched := 0
	for _, r := range live {
		if r.ctx.Done() != nil {
			watched++
		}
	}
	if watched < len(live) {
		return ctx, cancel
	}
	remaining := new(atomic.Int64)
	remaining.Store(int64(watched))
	for _, r := range live {
		go func(done <-chan struct{}) {
			select {
			case <-done:
				if remaining.Add(-1) == 0 {
					cancel()
				}
			case <-ctx.Done():
				// Batch finished (or fully abandoned); watcher exits.
			}
		}(r.ctx.Done())
	}
	return ctx, cancel
}

// latencySnapshot summarizes the sliding window of recent serving
// behaviour: request latencies (enqueue to response) and how full batches
// were relative to the maxBatch limit when they flushed.
type latencySnapshot struct {
	Samples       int           // latency observations in the window
	P50           time.Duration // median request latency over the window
	P95           time.Duration // 95th-percentile request latency
	Batches       int           // occupancy observations in the window
	MeanOccupancy float64       // mean batch fill fraction vs maxBatch
	// Throughput is the observed serving rate in records/sec over the
	// window's wall-clock span (0 until two observations exist); the
	// tuner's throughput floor reads it.
	Throughput float64
}

// latWindow is a mutex-guarded pair of fixed rings: per-request latencies
// and per-batch occupancy fractions. Overwrites oldest first. flush takes
// mu once per batch and stamps every record with the clock reading it
// already has, so the add methods expect mu held.
type latWindow struct {
	mu    sync.Mutex
	lats  [latWindowSize]time.Duration
	whens [latWindowSize]time.Time // observation times, for Throughput
	occs  [latWindowSize]float64
	nLat  int // total latency observations ever
	nOcc  int // total occupancy observations ever
}

func (w *latWindow) addLatency(now time.Time, d time.Duration) {
	w.lats[w.nLat%latWindowSize] = d
	w.whens[w.nLat%latWindowSize] = now
	w.nLat++
}

func (w *latWindow) addOccupancy(f float64) {
	w.occs[w.nOcc%latWindowSize] = f
	w.nOcc++
}

// snapshot computes quantiles over the window. O(window log window).
func (w *latWindow) snapshot() latencySnapshot {
	w.mu.Lock()
	nl := min(w.nLat, latWindowSize)
	lats := make([]time.Duration, nl)
	copy(lats, w.lats[:nl])
	no := min(w.nOcc, latWindowSize)
	var occSum float64
	for _, f := range w.occs[:no] {
		occSum += f
	}
	var span time.Duration
	if nl >= 2 {
		// Newest observation is slot (nLat-1)%size; the oldest retained
		// is slot nLat%size once the ring has wrapped, else slot 0.
		newest := w.whens[(w.nLat-1)%latWindowSize]
		oldest := w.whens[0]
		if w.nLat > latWindowSize {
			oldest = w.whens[w.nLat%latWindowSize]
		}
		span = newest.Sub(oldest)
	}
	w.mu.Unlock()

	snap := latencySnapshot{Samples: nl, Batches: no}
	if no > 0 {
		snap.MeanOccupancy = occSum / float64(no)
	}
	if nl > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		snap.P50 = lats[nl/2]
		snap.P95 = lats[(nl*95)/100]
	}
	if span > 0 {
		snap.Throughput = float64(nl-1) / span.Seconds()
	}
	return snap
}
