package keystone

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBatcherClosed is returned by Predict after Close.
var ErrBatcherClosed = errors.New("keystone: batcher closed")

const (
	defaultMaxBatch = 32
	// defaultMaxDelay is the linger of a batcher whose caller set none: the
	// shortest one the Go runtime delivers as asked (on an idle P it rounds
	// a shorter timer up to a millisecond). It keeps an unconfigured
	// route's closed-loop throughput paced by the clock rather than by the
	// CPU; maxDelay 0 takes the clock out.
	defaultMaxDelay = time.Millisecond
	// batcherQueueDepth bounds requests queued ahead of batch assembly;
	// beyond it Predict callers block (back-pressure) until the loop
	// drains or their context fires.
	batcherQueueDepth = 256
	// flushOverlap bounds how many batches may execute in the pipeline
	// simultaneously. With 1 the old head-of-line behaviour returns: a
	// slow batch blocks the next from forming. With 2+ the assembly loop
	// keeps collecting while earlier batches execute.
	flushOverlap = 2
	// latWindowSize is the ring capacity of the latency/occupancy window
	// behind Latency(); sized so p95 has resolution without unbounded
	// memory.
	latWindowSize = 256
)

// Batcher coalesces concurrent single-record Predict calls into batched
// TransformBatch invocations while callers keep a one-record-at-a-time
// API. It is work-conserving: a batch closes at the instant an execution
// slot is acquired, never at a timer tick, so a busy pipeline keeps
// absorbing arrivals (up to maxBatch) for as long as it waits for a slot.
//
// Linger is a separate, removable term: with maxDelay > 0 (the default is
// 1ms) a batch that is not yet full waits out maxDelay after its first
// record before it becomes eligible for a slot, trading latency for batch
// size. That only pays on a pipeline whose batch path is cheaper per
// record than its single-record path. With maxDelay 0 batches are exactly
// what queued while the pipeline was busy, and an idle pipeline dispatches
// the first request with zero wait.
//
// Up to a small bound of batches execute in the pipeline concurrently, so
// a slow batch does not head-of-line-block the next one. A batch of one
// runs Transform under its caller's own context; a panic in a pipeline
// operator fails the batch it was part of, not the process. Limits are
// dynamic — SetLimits retargets (maxBatch, maxDelay) while the batcher
// runs, which is how the serve package's SLO-driven autotuner steers
// latency — and Latency() exposes a sliding window of observed request
// latencies and batch occupancy for exactly that feedback loop.
//
// A Batcher is safe for any number of concurrent Predict callers.
type Batcher[I, O any] struct {
	fitted *Fitted[I, O]

	maxBatch atomic.Int64
	maxDelay atomic.Int64 // nanoseconds

	reqs       chan batchReq[I, O]
	quit       chan struct{}
	flushSlots chan struct{}
	wg         sync.WaitGroup

	batches  atomic.Int64
	records  atomic.Int64
	failed   atomic.Int64
	largest  atomic.Int64
	inflight atomic.Int64
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

// NewBatcher wraps a fitted pipeline in a micro-batching front. maxBatch
// <= 0 defaults to 32. maxDelay is the linger: 0 dispatches as soon as an
// execution slot is free, a positive value holds a non-full batch open
// that long first, a negative one selects the default (1ms).
func NewBatcher[I, O any](f *Fitted[I, O], maxBatch int, maxDelay time.Duration) *Batcher[I, O] {
	b := &Batcher[I, O]{
		fitted:     f,
		reqs:       make(chan batchReq[I, O], batcherQueueDepth),
		quit:       make(chan struct{}),
		flushSlots: make(chan struct{}, flushOverlap),
	}
	b.SetLimits(maxBatch, maxDelay)
	b.wg.Add(1)
	go b.loop()
	return b
}

// SetLimits retargets the batch assembly limits; the next batch to form
// observes them. maxBatch <= 0 and maxDelay < 0 restore the defaults (32,
// 1ms); maxDelay == 0 is "no linger". Safe to call concurrently with
// serving traffic.
func (b *Batcher[I, O]) SetLimits(maxBatch int, maxDelay time.Duration) {
	if maxBatch <= 0 {
		maxBatch = defaultMaxBatch
	}
	if maxDelay < 0 {
		maxDelay = defaultMaxDelay
	}
	b.maxBatch.Store(int64(maxBatch))
	b.maxDelay.Store(int64(maxDelay))
}

// Limits returns the current (maxBatch, maxDelay) targets.
func (b *Batcher[I, O]) Limits() (int, time.Duration) {
	return int(b.maxBatch.Load()), time.Duration(b.maxDelay.Load())
}

// QueueDepth reports how many requests are queued ahead of batch
// assembly right now, including records already pulled into the batch
// being assembled (they have left the channel but are still waiting).
// It is the signal a high-watermark load shedder reads: a persistently
// deep queue means arrivals outpace the pipeline, and every queued
// request is latency some caller is already paying.
func (b *Batcher[I, O]) QueueDepth() int {
	return len(b.reqs) + int(b.assembling.Load())
}

// Predict runs one record through the pipeline, transparently sharing a
// batch with concurrent callers. It honors ctx while queued; once its
// batch starts executing the result is computed regardless (and discarded
// if the caller has gone).
func (b *Batcher[I, O]) Predict(ctx context.Context, rec I) (O, error) {
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
		return zero, ErrBatcherClosed
	}
	select {
	case r := <-req.resp:
		return r.out, r.err
	case <-ctx.Done():
		return zero, ctx.Err()
	case <-b.quit:
		return zero, ErrBatcherClosed
	}
}

// Close stops the batch loop and waits for in-flight flushes to finish
// delivering. Requests still queued fail with ErrBatcherClosed.
func (b *Batcher[I, O]) Close() {
	close(b.quit)
	b.wg.Wait()
}

// BatcherStats is a point-in-time snapshot of batching behaviour.
type BatcherStats struct {
	Batches      int64 // flushed batches
	Records      int64 // records served through batches
	Failed       int64 // records whose batch execution returned an error
	LargestBatch int64 // largest batch observed
	InFlight     int64 // requests currently queued or executing
}

// Stats snapshots the batcher counters.
func (b *Batcher[I, O]) Stats() BatcherStats {
	return BatcherStats{
		Batches:      b.batches.Load(),
		Records:      b.records.Load(),
		Failed:       b.failed.Load(),
		LargestBatch: b.largest.Load(),
		InFlight:     b.inflight.Load(),
	}
}

// LatencySnapshot summarizes the sliding window of recent serving
// behaviour: request latencies (enqueue to response) and how full batches
// were relative to the maxBatch limit when they flushed. The serve
// package's autotuner feeds on this.
type LatencySnapshot struct {
	Samples       int           // latency observations in the window
	P50           time.Duration // median request latency over the window
	P95           time.Duration // 95th-percentile request latency
	Batches       int           // occupancy observations in the window
	MeanOccupancy float64       // mean batch fill fraction vs maxBatch
	// Throughput is the observed serving rate in records/sec over the
	// window's wall-clock span (0 until two observations exist). The
	// multi-objective tuner reads it to enforce a throughput floor.
	Throughput float64
}

// Latency computes quantiles over the sliding window. O(window log window).
func (b *Batcher[I, O]) Latency() LatencySnapshot {
	return b.window.snapshot()
}

// loop assembles and dispatches batches with one work-conserving select
// per event: absorb another request (while the batch has room), let the
// linger expire, or take a free execution slot — which is what
// closes the batch. The slot case is armed only once the batch may leave:
// it is full, or it never lingered, or its linger has expired.
func (b *Batcher[I, O]) loop() {
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
				maxBatch, maxDelay = b.Limits()
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
			b.fail(batch)
			return
		}
	}
}

// flush executes one batch and fans results back to the waiters.
// Requests whose callers abandoned ship while queued are dropped before
// the pipeline runs. capacity is the maxBatch limit the batch was
// assembled under, for the occupancy observation.
func (b *Batcher[I, O]) flush(batch []batchReq[I, O], capacity int) {
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
// This is the serving tier's panic boundary: flush runs on its own
// goroutine, where an operator panic on a malformed record would take the
// whole process down, so it is recovered into the batch's error instead.
func (b *Batcher[I, O]) execute(live []batchReq[I, O]) (solo O, outs []O, err error) {
	defer func() {
		if p := recover(); p != nil {
			outs, err = nil, fmt.Errorf("keystone: pipeline panicked: %v", p)
		}
	}()
	if len(live) == 1 {
		solo, err = b.fitted.Transform(live[0].ctx, live[0].rec)
		return solo, nil, err
	}
	recs := make([]I, len(live))
	for i, r := range live {
		recs[i] = r.rec
	}
	ctx, cancel := b.batchContext(live)
	defer cancel()
	outs, err = b.fitted.TransformBatch(ctx, recs)
	return solo, outs, err
}

// batchContext derives the context a batch executes under from the live
// requests' contexts: it cancels once every watched caller has gone. A
// request with a non-cancelable context (Done() == nil) pins the batch
// alive, so no watchers are spawned at all in that common case.
func (b *Batcher[I, O]) batchContext(live []batchReq[I, O]) (context.Context, context.CancelFunc) {
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

// fail rejects a batch that could not be executed because the batcher is
// shutting down.
func (b *Batcher[I, O]) fail(batch []batchReq[I, O]) {
	for _, r := range batch {
		r.resp <- batchResp[O]{err: ErrBatcherClosed}
	}
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

func (w *latWindow) snapshot() LatencySnapshot {
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

	snap := LatencySnapshot{Samples: nl, Batches: no}
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
