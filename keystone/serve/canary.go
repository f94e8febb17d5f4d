package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"keystoneml/keystone"
)

// ErrCanaryActive is returned by Deploy, Rollback, Canary and Shadow
// while a candidate is already staged on the route; resolve it with
// Promote or Abort first.
var ErrCanaryActive = errors.New("serve: canary or shadow already active")

// ErrNoCanary is returned by Promote and Abort when no candidate is
// staged.
var ErrNoCanary = errors.New("serve: no canary or shadow active")

// shadowMaxInFlight bounds concurrent mirrored requests per route; when
// the shadow pipeline cannot keep up, further mirrors are dropped (and
// counted) rather than queued, so shadowing can never build back-pressure
// that reaches primary traffic.
const shadowMaxInFlight = 64

// canaryMode distinguishes the two candidate-staging modes.
type canaryMode int

const (
	modeCanary canaryMode = iota // candidate serves a fraction of live traffic
	modeShadow                   // candidate sees mirrored traffic, responses discarded
)

func (m canaryMode) String() string {
	if m == modeShadow {
		return "shadow"
	}
	return "canary"
}

// canaryState is one staged candidate: the version under evaluation plus
// the splitter / mirror bookkeeping. It is published on the route with an
// atomic pointer, so the request path reads it lock-free; Promote and
// Abort clear the pointer first, which instantly stops new candidate
// picks, then drain the candidate behind its version gate exactly like a
// hot-swap drains a retired primary.
type canaryState[I, O any] struct {
	mode    canaryMode
	cand    *version[I, O]
	started time.Time

	// frac holds the canary target traffic share as float64 bits so
	// SetCanaryFraction (the dist-router rollout push) can retarget a
	// staged candidate while the splitter reads it lock-free.
	frac atomic.Uint64

	// primServed0/primErrs0 snapshot the primary's counters at stage
	// time, so CanaryStats compares same-window deltas instead of the
	// candidate's fresh counters against the primary's whole history.
	primServed0, primErrs0 int64

	counter atomic.Uint64 // deterministic request counter for the splitter

	shadowInFlight atomic.Int64 // live mirrors, capped at shadowMaxInFlight
	shadowDropped  atomic.Int64 // mirrors dropped at the cap
}

// pickCandidate is the deterministic traffic splitter: request n goes to
// the candidate iff the integer part of n*fraction advanced, which
// spreads candidate picks evenly through the request sequence (a
// Bresenham-style split — at 10% exactly every ~10th request, not the
// first 10% of each window) and hits the target fraction within ±1
// request over any run length.
func (st *canaryState[I, O]) pickCandidate() bool {
	n := st.counter.Add(1)
	f := st.fraction()
	return uint64(float64(n)*f) != uint64(float64(n-1)*f)
}

// fraction reads the live canary traffic share.
func (st *canaryState[I, O]) fraction() float64 { return math.Float64frombits(st.frac.Load()) }

// setFraction updates the live canary traffic share.
func (st *canaryState[I, O]) setFraction(f float64) { st.frac.Store(math.Float64bits(f)) }

// Canary stages fitted as a candidate version receiving fraction
// (0 < fraction < 1) of this route's single-prediction traffic. The
// candidate gets its own batcher and latency window, so its p95 and
// error rate are observable per-version (CanaryStats, GET
// /routes/{name}/canary) before any commitment. End the experiment with
// Promote (candidate takes all traffic; previous version drains exactly
// as in Deploy) or Abort (candidate drains and is discarded; no live
// request is lost either way). Returns the candidate's version id.
//
// Caller-assembled batches (PredictBatch) stay on the primary: a batch
// is one caller-visible unit, and splitting records across versions
// would produce mixed-version responses.
func (rt *Route[I, O]) Canary(ctx context.Context, fitted *keystone.Fitted[I, O], fraction float64) (int, error) {
	if fitted == nil {
		return 0, fmt.Errorf("serve: Canary on route %q with nil fitted pipeline", rt.name)
	}
	if math.IsNaN(fraction) || fraction <= 0 || fraction >= 1 {
		return 0, fmt.Errorf("serve: canary fraction %v out of range (0, 1)", fraction)
	}
	return rt.stage(ctx, fitted, modeCanary, fraction)
}

// Shadow stages fitted as a shadow candidate: every single-prediction
// request is served by the primary as usual and additionally mirrored to
// the candidate asynchronously. Mirror responses are discarded; only the
// candidate's latency window and error counters are kept, so a
// candidate's behaviour under the real traffic mix is observable with
// zero risk to responses. Mirroring is strictly non-blocking — a mirror
// that cannot start immediately (shadowMaxInFlight reached) is dropped
// and counted, never queued — so the primary's latency is unaffected
// beyond the cost of one atomic load and goroutine spawn. Returns the
// candidate's version id; finish with Promote or Abort.
func (rt *Route[I, O]) Shadow(ctx context.Context, fitted *keystone.Fitted[I, O]) (int, error) {
	if fitted == nil {
		return 0, fmt.Errorf("serve: Shadow on route %q with nil fitted pipeline", rt.name)
	}
	return rt.stage(ctx, fitted, modeShadow, 0)
}

// stage builds the candidate version and publishes the canary state.
func (rt *Route[I, O]) stage(ctx context.Context, fitted *keystone.Fitted[I, O], mode canaryMode, fraction float64) (int, error) {
	if err := rt.begin(ctx, false); err != nil {
		return 0, err
	}
	defer rt.mu.Unlock()
	// A candidate is stored up front like a deploy: if it wins promotion
	// the swap must not be the first moment persistence can fail.
	art, err := rt.storeFitted(fitted)
	if err != nil {
		return 0, err
	}
	cand := rt.newVersion(fitted, mode.String()+" candidate", art)
	st := &canaryState[I, O]{
		mode:    mode,
		cand:    cand,
		started: time.Now(),
	}
	st.setFraction(fraction)
	if prim := rt.cur.Load(); prim != nil {
		st.primServed0 = prim.served.Load()
		st.primErrs0 = prim.errs.Load()
	}
	rt.canary.Store(st)
	return cand.id, nil
}

// Promote makes the staged candidate the route's live version. The
// splitter is cleared first (no new candidate picks), the pointer swap
// routes all new traffic to the candidate, and the old primary drains
// behind its gate before its batcher closes — the same lossless sequence
// as Deploy. Returns the promoted version id.
func (rt *Route[I, O]) Promote(ctx context.Context) (int, error) {
	if err := rt.begin(ctx, true); err != nil {
		return 0, err
	}
	defer rt.mu.Unlock()
	st := rt.canary.Swap(nil)
	rt.makeLive(st.cand)
	return st.cand.id, nil
}

// Abort discards the staged candidate: the splitter is cleared (new
// requests all go to the primary), in-flight candidate requests and
// mirrors drain behind the candidate's gate, and its batcher closes.
// Requests that raced the abort retry on the primary via the usual gate
// retry loop, so an abort — like a rollback — loses nothing.
func (rt *Route[I, O]) Abort(ctx context.Context) error {
	if err := rt.begin(ctx, true); err != nil {
		return err
	}
	defer rt.mu.Unlock()
	rt.retire(rt.canary.Swap(nil).cand)
	return nil
}

// CanaryStats compares the staged candidate against the live primary:
// per-version served/error counters and latency quantiles from each
// version's own batcher window. ok is false when nothing is staged.
type CanaryStats struct {
	// Mode is "canary" or "shadow".
	Mode string
	// CandidateVersion is the staged candidate's version id.
	CandidateVersion int
	// Fraction is the canary traffic share (0 for shadow mode).
	Fraction float64
	// Started is when the candidate was staged.
	Started time.Time

	// PrimaryServed / CandidateServed count records served per version
	// since the candidate was staged (the primary's pre-stage history is
	// excluded, so the two windows are comparable); for a shadow
	// candidate, "served" counts completed mirrors.
	PrimaryServed, CandidateServed int64
	// PrimaryErrors / CandidateErrors count failed records since the
	// candidate was staged (a failed batch counts every record in it).
	PrimaryErrors, CandidateErrors int64
	// Latency quantiles over each version's sliding window.
	PrimaryP50, PrimaryP95     time.Duration
	CandidateP50, CandidateP95 time.Duration
	// ShadowDropped counts mirrors dropped at the in-flight cap
	// (shadow mode only).
	ShadowDropped int64
}

// CanaryStats snapshots the live canary/shadow comparison; ok reports
// whether a candidate is staged.
func (rt *Route[I, O]) CanaryStats() (stats CanaryStats, ok bool) {
	st := rt.canary.Load()
	if st == nil {
		return CanaryStats{}, false
	}
	stats = CanaryStats{
		Mode:             st.mode.String(),
		CandidateVersion: st.cand.id,
		Fraction:         st.fraction(),
		Started:          st.started,
		CandidateServed:  st.cand.served.Load(),
		CandidateErrors:  st.cand.errs.Load(),
		ShadowDropped:    st.shadowDropped.Load(),
	}
	// histMu keeps both batchers attached while their windows are read: a
	// concurrent Abort or two swaps may retire either version meanwhile.
	rt.histMu.RLock()
	defer rt.histMu.RUnlock()
	if b := st.cand.batcher; b != nil {
		snap := b.window.snapshot()
		stats.CandidateP50, stats.CandidateP95 = snap.P50, snap.P95
	}
	if prim := rt.cur.Load(); prim != nil {
		stats.PrimaryServed = prim.served.Load() - st.primServed0
		stats.PrimaryErrors = prim.errs.Load() - st.primErrs0
		snap := prim.batcher.window.snapshot()
		stats.PrimaryP50, stats.PrimaryP95 = snap.P50, snap.P95
	}
	return stats, true
}

// mirror sends rec to the shadow candidate asynchronously, discarding
// the response. It never blocks the caller: the in-flight cap is checked
// with one atomic add, and past it the mirror is dropped on the floor.
func (rt *Route[I, O]) mirror(st *canaryState[I, O], rec I) {
	if st.shadowInFlight.Add(1) > shadowMaxInFlight {
		st.shadowInFlight.Add(-1)
		st.shadowDropped.Add(1)
		return
	}
	go func() {
		defer st.shadowInFlight.Add(-1)
		if !st.cand.gate.enter() {
			return // candidate aborted/promoted under us; nothing to do
		}
		defer st.cand.gate.leave()
		ctx, cancel := context.WithTimeout(context.Background(), rt.timeout)
		defer cancel()
		if _, err := st.cand.batcher.predict(ctx, rec); err != nil {
			st.cand.errs.Add(1)
		} else {
			st.cand.served.Add(1)
		}
	}()
}

// --- HTTP surface (invoked by Server.ServeHTTP) ---

// handleCanary serves the /routes/{name}/canary endpoint: GET returns
// the live comparison, POST refits a candidate (via SetRefit) and stages
// it at the requested fraction.
func (rt *Route[I, O]) handleCanary(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		stats, ok := rt.CanaryStats()
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Sprintf("route %q has no canary or shadow active", rt.name))
			return
		}
		writeJSON(w, canaryStatsValue(stats))
		return
	}
	if !requirePost(w, r) {
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	// A pointer distinguishes an absent field (default 0.1) from an
	// explicit "fraction": 0, which is an error like any other
	// out-of-range value.
	var req struct {
		Fraction *float64 `json:"fraction"`
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
			return
		}
	}
	fraction := 0.1
	if req.Fraction != nil {
		fraction = *req.Fraction
	}
	// Validate before refitting: a bad fraction must not burn a full
	// training run, and it is the caller's 400, not a server fault.
	if math.IsNaN(fraction) || fraction <= 0 || fraction >= 1 {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("canary fraction %v out of range (0, 1)", fraction))
		return
	}
	fitted, ok := rt.refitForHTTP(w, r)
	if !ok {
		return
	}
	ver, err := rt.Canary(r.Context(), fitted, fraction)
	if err != nil {
		httpError(w, stageStatusOf(err), err.Error())
		return
	}
	writeJSON(w, map[string]any{"route": rt.name, "candidate_version": ver, "fraction": fraction})
}

// handleShadow serves POST /routes/{name}/shadow: refit a candidate and
// stage it as a shadow.
func (rt *Route[I, O]) handleShadow(w http.ResponseWriter, r *http.Request) {
	fitted, ok := rt.refitForHTTP(w, r)
	if !ok {
		return
	}
	ver, err := rt.Shadow(r.Context(), fitted)
	if err != nil {
		httpError(w, stageStatusOf(err), err.Error())
		return
	}
	writeJSON(w, map[string]any{"route": rt.name, "candidate_version": ver, "mode": "shadow"})
}

// handlePromote serves POST /routes/{name}/promote.
func (rt *Route[I, O]) handlePromote(w http.ResponseWriter, r *http.Request) {
	ver, err := rt.Promote(r.Context())
	if err != nil {
		httpError(w, stageStatusOf(err), err.Error())
		return
	}
	writeJSON(w, map[string]any{"route": rt.name, "version": ver})
}

// handleAbort serves POST /routes/{name}/abort.
func (rt *Route[I, O]) handleAbort(w http.ResponseWriter, r *http.Request) {
	if err := rt.Abort(r.Context()); err != nil {
		httpError(w, stageStatusOf(err), err.Error())
		return
	}
	writeJSON(w, map[string]any{"route": rt.name, "aborted": true})
}

// refitForHTTP runs the route's refitter for a staging endpoint.
func (rt *Route[I, O]) refitForHTTP(w http.ResponseWriter, r *http.Request) (*keystone.Fitted[I, O], bool) {
	rt.refitMu.RLock()
	refit := rt.refit
	rt.refitMu.RUnlock()
	if refit == nil {
		httpError(w, http.StatusNotImplemented, fmt.Sprintf("route %q has no refitter configured", rt.name))
		return nil, false
	}
	fitted, err := refit(r.Context())
	if err != nil {
		httpError(w, statusOf(err), "refit: "+err.Error())
		return nil, false
	}
	return fitted, true
}

// stageStatusOf maps canary lifecycle errors onto HTTP statuses:
// staging conflicts are the caller's 409s, the rest keep their usual
// mapping.
func stageStatusOf(err error) int {
	if errors.Is(err, ErrCanaryActive) || errors.Is(err, ErrNoCanary) {
		return http.StatusConflict
	}
	return statusOf(err)
}

// canaryStatsValue renders CanaryStats for the JSON surface.
func canaryStatsValue(s CanaryStats) map[string]any {
	out := map[string]any{
		"mode":              s.Mode,
		"candidate_version": s.CandidateVersion,
		"started_at":        s.Started.UTC().Format(time.RFC3339Nano),
		"primary": map[string]any{
			"served": s.PrimaryServed, "errors": s.PrimaryErrors,
			"latency_p50_ms": durMS(s.PrimaryP50), "latency_p95_ms": durMS(s.PrimaryP95),
		},
		"candidate": map[string]any{
			"served": s.CandidateServed, "errors": s.CandidateErrors,
			"latency_p50_ms": durMS(s.CandidateP50), "latency_p95_ms": durMS(s.CandidateP95),
		},
	}
	if s.Mode == "canary" {
		out["fraction"] = s.Fraction
	} else {
		out["shadow_dropped"] = s.ShadowDropped
	}
	return out
}
