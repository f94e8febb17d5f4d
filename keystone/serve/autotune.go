package serve

import "time"

// SLO declares a latency objective for one route. When TargetP95 is
// positive the route runs an autotuner that retargets its batcher's
// (maxBatch, maxDelay) online from the observed latency window — the
// static -max-batch/-max-delay flags become mere starting points, clamped
// into [MinBatch, MaxBatch] and [MinDelay, MaxDelay]. A tuned route
// therefore always lingers: a maxDelay of 0 starts it at MinDelay, and
// left unset it starts at the route default (1ms).
type SLO struct {
	// TargetP95 is the 95th-percentile request latency to steer toward.
	// <= 0 disables autotuning for the route.
	TargetP95 time.Duration
	// Interval is the tuning cadence (default 250ms).
	Interval time.Duration
	// MinBatch/MaxBatch bound the tuned batch size (defaults 1, 512).
	MinBatch, MaxBatch int
	// MinDelay/MaxDelay bound the tuned linger (defaults 50µs, 100ms).
	MinDelay, MaxDelay time.Duration
	// MinSamples is how many latency observations the window needs
	// before a tuning step acts (default 16).
	MinSamples int
	// ThroughputFloor, when positive, makes the objective
	// multi-objective: keep p95 under TargetP95 *without* letting the
	// observed serving rate (records/sec) fall below this floor. With
	// the floor violated the tuner stops collapsing the assembly window
	// (which would trade away batching efficiency) and instead grows the
	// batch to win throughput back — so admission-control shedding and
	// window-shrinking pull in the same direction instead of fighting.
	ThroughputFloor float64
}

func (s SLO) withDefaults() SLO {
	if s.Interval <= 0 {
		s.Interval = 250 * time.Millisecond
	}
	if s.MinBatch <= 0 {
		s.MinBatch = 1
	}
	if s.MaxBatch <= 0 {
		s.MaxBatch = 512
	}
	if s.MinDelay <= 0 {
		s.MinDelay = 50 * time.Microsecond
	}
	if s.MaxDelay <= 0 {
		s.MaxDelay = 100 * time.Millisecond
	}
	if s.MinSamples <= 0 {
		s.MinSamples = 16
	}
	return s
}

// step is the autotuner: it adjusts a batcher's (maxBatch, maxDelay)
// toward the p95 target using AIMD-style feedback on the batcher's
// latency window:
//
//   - Over the SLO with batches filling before the window expires
//     (occupancy ≥ 0.9): the route is throughput-bound — double maxBatch
//     to amortize per-flush overhead, and cut the delay window.
//   - Over the SLO otherwise: latency is delay-bound — cut maxDelay
//     multiplicatively (x0.6).
//   - Comfortably under the SLO (p95 < 0.7·target): spend the headroom
//     on batching — grow the window (x1.15), and grow the batch if
//     occupancy shows demand (or shrink it when batches run near-empty).
//
// Multiplicative decrease reacts within a few intervals to violations;
// the slow increase converges the limits to the largest batching the SLO
// admits, which is where per-request cost is lowest.
//
// With ThroughputFloor set the objective is two-dimensional: while the
// observed rate sits below the floor the tuner refuses to shrink the
// window multiplicatively (a collapsed window destroys the batching that
// throughput depends on) and grows the batch instead whenever occupancy
// shows real demand. The p95 target still wins when throughput is
// healthy.
//
// step is a pure decision function over an SLO with defaults resolved,
// so convergence is unit-testable without a live server; the route's
// tuning loop calls it every Interval.
func (c SLO) step(snap latencySnapshot, curBatch int, curDelay time.Duration) (int, time.Duration) {
	if snap.Samples < c.MinSamples {
		return curBatch, curDelay
	}
	batch, delay := curBatch, curDelay
	starved := c.ThroughputFloor > 0 && snap.Throughput > 0 && snap.Throughput < c.ThroughputFloor
	switch {
	case snap.P95 > c.TargetP95:
		// One doubling per step at most: starvation lowers the occupancy
		// bar for growth, it does not stack a second doubling on top.
		if snap.MeanOccupancy >= 0.9 || (starved && snap.MeanOccupancy >= 0.5) {
			batch = min(c.MaxBatch, batch*2)
		}
		if starved {
			// Throughput below floor: collapsing the window would shrink
			// batches and lose more throughput — trim it only gently.
			delay = max(c.MinDelay, time.Duration(float64(delay)*0.9))
		} else {
			delay = max(c.MinDelay, time.Duration(float64(delay)*0.6))
		}
	case snap.P95 < c.TargetP95*7/10:
		delay = min(c.MaxDelay, time.Duration(float64(delay)*1.15)+50*time.Microsecond)
		if snap.MeanOccupancy >= 0.75 || (starved && snap.MeanOccupancy >= 0.5) {
			batch = min(c.MaxBatch, batch+batch/4+1)
		} else if snap.MeanOccupancy < 0.25 && !starved {
			batch = max(c.MinBatch, batch*3/4)
		}
	default:
		if starved && snap.MeanOccupancy >= 0.5 {
			// Inside the p95 band but under the floor: win throughput back
			// with a bigger batch; leave the window alone.
			batch = min(c.MaxBatch, batch+batch/4+1)
		}
	}
	return batch, delay
}

// clamp folds starting limits into the objective's bounds so a route's
// initial configuration and the tuner agree.
func (c SLO) clamp(batch int, delay time.Duration) (int, time.Duration) {
	return min(c.MaxBatch, max(c.MinBatch, batch)), min(c.MaxDelay, max(c.MinDelay, delay))
}
