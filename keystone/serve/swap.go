package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"keystoneml/keystone"
)

// ErrRouteClosed is returned by route operations after the route (or its
// server) has been closed.
var ErrRouteClosed = errors.New("serve: route closed")

// version is one deployed pipeline artifact behind a route: the fitted
// pipeline, its micro-batcher, and the drain machinery that makes
// swapping it out lossless.
//
// The zero-downtime contract: requests pin the version they load with an
// RLock held for the whole prediction. A transition publishes the
// successor first (the atomic pointer swap), then retires the old
// version: its gate's write lock waits for every pinned request to
// finish and marks it retired, and only then does its batcher close. A
// request that loaded the old pointer either gets in before the write
// lock (and is served normally by the still-running old version) or
// blocks, observes retired, and retries against the new version. No
// request ever meets a closed batcher.
//
// fitted and batcher are read under the gate on the request path and
// under histMu by stats and the tuner; retire clears them (under histMu)
// once the version can never serve again, so history keeps only ids,
// notes, artifacts and counters.
type version[I, O any] struct {
	id       int
	note     string
	artifact string // content address in the bound ArtifactStore ("" = not stored)
	fitted   *keystone.Fitted[I, O]
	batcher  *batcher[I, O]
	deployed time.Time
	served   atomic.Int64
	errs     atomic.Int64 // failed records attributed to this version

	gate drainGate
}

// Deploy fits a new pipeline version behind the running route and
// atomically switches traffic to it: the route's next request is served
// by fitted, in-flight requests drain on the previous version, and the
// previous batcher is closed only once empty. Returns the new version id.
// Deploys serialize per route; the previous version stays in the history
// for rollback.
func (rt *Route[I, O]) Deploy(ctx context.Context, fitted *keystone.Fitted[I, O]) (int, error) {
	if fitted == nil {
		return 0, fmt.Errorf("serve: Deploy on route %q with nil fitted pipeline", rt.name)
	}
	if err := rt.begin(ctx, false); err != nil {
		return 0, err
	}
	defer rt.mu.Unlock()
	// With an artifact store bound the new version is stored before the
	// swap: a deploy that cannot be made durable fails loudly with the
	// old version still serving.
	art, err := rt.storeFitted(fitted)
	if err != nil {
		return 0, err
	}
	return rt.deployLocked(fitted, "deploy", art), nil
}

// Rollback redeploys the artifact of the version that was live before
// the current one, as a new version (history is append-only). Returns
// the new version id.
func (rt *Route[I, O]) Rollback(ctx context.Context) (int, error) {
	if err := rt.begin(ctx, false); err != nil {
		return 0, err
	}
	defer rt.mu.Unlock()
	// prevLiveID tracks the last version that actually held traffic, not
	// merely the previous history entry — aborted canary candidates sit
	// in the history too and must never be a rollback target.
	if rt.prevLiveID == 0 {
		// No in-memory predecessor — a freshly restarted process. With an
		// artifact store bound, the "<route>.previous" tag written by the
		// pre-restart process still knows what was live before the last
		// swap, so rollback survives the restart.
		return rt.rollbackFromStoreLocked()
	}
	rt.histMu.RLock()
	prev := rt.vers[rt.prevLiveID-1]
	rt.histMu.RUnlock()
	return rt.deployLocked(prev.fitted, fmt.Sprintf("rollback to v%d", prev.id), prev.artifact), nil
}

// rollbackFromStoreLocked redeploys the artifact behind the route's
// "<route>.previous" tag; caller holds rt.mu.
func (rt *Route[I, O]) rollbackFromStoreLocked() (int, error) {
	if rt.store == nil {
		return 0, fmt.Errorf("serve: route %q has no previous version to roll back to", rt.name)
	}
	tag := rt.name + ".previous"
	fitted, id, err := loadArtifact[I, O](rt.store, tag)
	if err != nil {
		return 0, fmt.Errorf("serve: route %q has no previous version in memory; rollback from %w", rt.name, err)
	}
	return rt.deployLocked(fitted, "rollback to artifact "+shortID(id), id), nil
}

// begin opens a lifecycle transition: it refuses a dead ctx, takes rt.mu,
// and refuses a closed route or one whose staging state is not the one
// the transition needs — a staged candidate when staged is true (Promote,
// Abort), none otherwise (Deploy, Rollback, DeployArtifact, Canary,
// Shadow). On success the caller holds rt.mu and must unlock it.
func (rt *Route[I, O]) begin(ctx context.Context, staged bool) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	rt.mu.Lock()
	var err error
	switch active := rt.canary.Load() != nil; {
	case rt.closed:
		err = ErrRouteClosed
	case staged && !active:
		err = ErrNoCanary
	case !staged && active:
		err = ErrCanaryActive
	default:
		return nil
	}
	rt.mu.Unlock()
	return err
}

// newVersion builds a version serving fitted behind a fresh batcher at
// the route's current limits and appends it to the history; caller holds
// rt.mu. artifact is its content address in the bound store ("" = not
// stored).
func (rt *Route[I, O]) newVersion(fitted *keystone.Fitted[I, O], note, artifact string) *version[I, O] {
	maxBatch, maxDelay := rt.limits()
	v := &version[I, O]{
		note:     note,
		artifact: artifact,
		fitted:   fitted,
		batcher:  newBatcher(fitted, maxBatch, maxDelay),
		deployed: time.Now(),
	}
	rt.histMu.Lock()
	v.id = len(rt.vers) + 1
	rt.vers = append(rt.vers, v)
	rt.histMu.Unlock()
	return v
}

// deployLocked builds a version and makes it live; caller holds rt.mu.
func (rt *Route[I, O]) deployLocked(fitted *keystone.Fitted[I, O], note, artifact string) int {
	v := rt.newVersion(fitted, note, artifact)
	rt.makeLive(v)
	return v.id
}

// makeLive publishes v as the live version, retires the one it replaces
// (which becomes the rollback target), and moves the store's live and
// previous tags; caller holds rt.mu.
func (rt *Route[I, O]) makeLive(v *version[I, O]) {
	old := rt.cur.Swap(v)
	prevArt := ""
	if old != nil {
		rt.prevLiveID = old.id
		prevArt = old.artifact
		rt.retire(old)
	}
	rt.retagLocked(v.artifact, prevArt)
}

// retire takes v out of service, the one way any version leaves it: its
// gate drains every pinned request and turns later ones away, then its
// batcher closes. Then every version that can no longer serve — not live,
// not the staged candidate, not the rollback target — lets go of its
// pipeline and batcher, so a route holds at most three pipelines however
// many versions its history lists. Caller holds rt.mu and has already
// unpublished v.
func (rt *Route[I, O]) retire(v *version[I, O]) {
	v.gate.retire()
	v.batcher.close()
	live := rt.cur.Load()
	var cand *version[I, O]
	if st := rt.canary.Load(); st != nil {
		cand = st.cand
	}
	rt.histMu.Lock()
	for _, h := range rt.vers {
		if h != live && h != cand && h.id != rt.prevLiveID {
			h.fitted, h.batcher = nil, nil
		}
	}
	rt.histMu.Unlock()
}

// drainGate is the per-version admission control behind the hot-swap:
// requests hold the read side for the duration of a prediction, retire
// blocks until every holder leaves and then turns new entrants away.
type drainGate struct {
	mu      sync.RWMutex
	retired bool
}

// enter pins the version; callers must leave() after the prediction.
// false means the version retired — retry on the current pointer.
func (g *drainGate) enter() bool {
	g.mu.RLock()
	if g.retired {
		g.mu.RUnlock()
		return false
	}
	return true
}

func (g *drainGate) leave() { g.mu.RUnlock() }

// retire waits out every pinned request, then marks the gate closed.
func (g *drainGate) retire() {
	g.mu.Lock()
	g.retired = true
	g.mu.Unlock()
}

// predict serves one record from whatever version is live, retrying
// across a concurrent swap; it reports the version that served. With a
// canary staged, the deterministic splitter sends the configured
// fraction of requests to the candidate (falling back to the primary if
// the candidate retires mid-flight); with a shadow staged, the record is
// additionally mirrored to the candidate without waiting on it.
func (rt *Route[I, O]) predict(ctx context.Context, rec I) (O, int, error) {
	var zero O
	// Pin the admitter for the whole request: a concurrent SetAdmission
	// swap must not split an acquire/release pair across two instances.
	adm := rt.adm.Load()
	if !adm.acquire(1) {
		return zero, 0, ErrOverloaded
	}
	defer adm.release(1)
	tryCanary := true
	for {
		v := rt.cur.Load()
		if v == nil {
			return zero, 0, ErrRouteClosed
		}
		var st *canaryState[I, O]
		if s := rt.canary.Load(); s != nil {
			switch s.mode {
			case modeShadow:
				st = s // mirror after the primary pick succeeds
			case modeCanary:
				if tryCanary && s.pickCandidate() {
					// One candidate attempt per request: if the candidate
					// retires before we pin it (concurrent Abort/Promote),
					// fall through to the primary rather than re-rolling.
					tryCanary = false
					if s.cand.gate.enter() {
						v = s.cand
						if adm.queueFull(v.batcher.queueDepth()) {
							v.gate.leave()
							return zero, 0, ErrOverloaded
						}
						out, err := rt.servePinned(ctx, v, rec)
						return out, v.id, err
					}
					continue
				}
			}
		}
		if !v.gate.enter() {
			continue // swapped out under us; retry on the successor
		}
		if adm.queueFull(v.batcher.queueDepth()) {
			v.gate.leave()
			return zero, 0, ErrOverloaded
		}
		if st != nil {
			rt.mirror(st, rec)
		}
		out, err := rt.servePinned(ctx, v, rec)
		return out, v.id, err
	}
}

// servePinned runs one record through a version whose gate the caller
// already holds, keeping the per-version counters; it releases the gate.
func (rt *Route[I, O]) servePinned(ctx context.Context, v *version[I, O], rec I) (O, error) {
	defer v.gate.leave()
	out, err := v.batcher.predict(ctx, rec)
	if err == nil {
		rt.served.Add(1)
		v.served.Add(1)
	} else {
		v.errs.Add(1)
	}
	return out, err
}

// predictBatch serves a caller-assembled batch on the live version's
// direct batch path (no micro-batching — the caller already batched).
// Batches always ride the primary: one batch is one caller-visible unit,
// so it is never split across a canary boundary.
func (rt *Route[I, O]) predictBatch(ctx context.Context, recs []I) ([]O, int, error) {
	adm := rt.adm.Load()
	if !adm.acquire(int64(len(recs))) {
		return nil, 0, ErrOverloaded
	}
	defer adm.release(int64(len(recs)))
	for {
		v := rt.cur.Load()
		if v == nil {
			return nil, 0, ErrRouteClosed
		}
		if !v.gate.enter() {
			continue
		}
		outs, err := rt.serveBatchPinned(ctx, v, recs)
		return outs, v.id, err
	}
}

// serveBatchPinned is servePinned for a whole batch. TransformBatch runs
// on the caller's goroutine — over HTTP the handler's, where net/http
// answers an operator panic by dropping the connection — so it defers
// the same panic boundary as the batcher, with the gate left and the
// records counted failed.
func (rt *Route[I, O]) serveBatchPinned(ctx context.Context, v *version[I, O], recs []I) (outs []O, err error) {
	defer v.gate.leave()
	defer func() {
		// Counters are in records on both sides: a failed batch failed
		// every record in it, or error rates would understate batch
		// failures by the batch size.
		if n := int64(len(recs)); err == nil {
			rt.served.Add(n)
			v.served.Add(n)
		} else {
			v.errs.Add(n)
		}
	}()
	defer recoverPipeline(&err)
	return v.fitted.TransformBatch(ctx, recs)
}

// closeRoute retires the staged candidate and the live version and
// stops the tuner. Requests in flight complete; later ones get
// ErrRouteClosed.
func (rt *Route[I, O]) closeRoute() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return
	}
	rt.closed = true
	if rt.tunerStop != nil {
		close(rt.tunerStop)
	}
	if st := rt.canary.Swap(nil); st != nil {
		rt.retire(st.cand)
	}
	if old := rt.cur.Swap(nil); old != nil {
		rt.retire(old)
	}
}
