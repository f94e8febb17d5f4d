package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"keystoneml/internal/httpbody"
	"keystoneml/keystone"
)

const defaultRouteTimeout = 5 * time.Second

var routeNameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]*$`)

// RouteOption configures a route at Register time.
type RouteOption func(*routeConfig)

type routeConfig struct {
	maxBatch   int
	maxDelay   time.Duration
	timeout    time.Duration
	slo        SLO
	admission  Admission
	store      ArtifactStore
	artifactID string // initial version's known content address (RegisterArtifact)
}

// WithBatchLimits sets the route's initial micro-batching limits.
// maxBatch <= 0 selects the batcher default (32 records). maxDelay is the
// linger: 0 dispatches a batch as soon as the pipeline has a free
// execution slot, a positive value holds a non-full batch open that long
// first, a negative one — like not giving the option — selects the
// batcher default (1ms). Under an SLO these are just the autotuner's
// starting point, clamped into the SLO's bounds.
func WithBatchLimits(maxBatch int, maxDelay time.Duration) RouteOption {
	return func(c *routeConfig) { c.maxBatch, c.maxDelay = maxBatch, maxDelay }
}

// WithTimeout bounds each HTTP request's prediction (default 5s).
func WithTimeout(d time.Duration) RouteOption {
	return func(c *routeConfig) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// WithSLO attaches a latency objective: the route runs an autotuner that
// steers (maxBatch, maxDelay) toward the target p95 online.
func WithSLO(slo SLO) RouteOption {
	return func(c *routeConfig) { c.slo = slo }
}

// Route is a named serving endpoint hosting successive versions of one
// fitted pipeline. It is created by Register, serves over the Server's
// HTTP surface (and programmatically via Predict/PredictBatch), and is
// hot-swapped with Deploy/Rollback. Type-changing registration is a
// package-level generic for the same reason keystone.Then is.
type Route[I, O any] struct {
	server  *Server
	name    string
	codec   Codec[I, O]
	timeout time.Duration

	// refit, when set, backs the POST /routes/{name}/deploy endpoint:
	// it produces a freshly fitted artifact which is then deployed.
	refitMu sync.RWMutex
	refit   func(context.Context) (*keystone.Fitted[I, O], error)

	// tuner state; tunedBatch/tunedDelay carry the current limits across
	// deploys so a new version's batcher starts where tuning left off.
	tuner      *Tuner
	tunerStop  chan struct{}
	tunedBatch atomic.Int64
	tunedDelay atomic.Int64

	mu         sync.Mutex // serializes Deploy / Rollback / Canary / Shadow / Promote / Abort / closeRoute
	closed     bool
	prevLiveID int // last version that held live traffic before cur (0 = none); guarded by mu
	cur        atomic.Pointer[version[I, O]]

	// canary holds the staged canary/shadow candidate (nil = none); the
	// request path reads it lock-free.
	canary atomic.Pointer[canaryState[I, O]]

	// adm is the route's admission control (a nil admitter admits
	// everything). It is an atomic pointer so SetAdmission — the
	// dist-router rollout push — can swap the caps under live traffic.
	adm atomic.Pointer[admitter]

	// store is the bound artifact registry (nil = none); set once at
	// Register time and immutable after, so the request path and stats
	// read it without locks. tagErrs counts failed best-effort tag moves.
	store   ArtifactStore
	tagErrs atomic.Int64

	histMu sync.RWMutex
	vers   []*version[I, O]

	served atomic.Int64 // records served across all versions and paths
}

// Register adds a named route serving fitted through codec and returns
// its typed handle. The first registered route also answers the bare
// /predict and /predict/batch paths (back-compat with the single-route
// server). Names are lowercase [a-z0-9_-]+ and must be unique.
func Register[I, O any](s *Server, name string, fitted *keystone.Fitted[I, O], codec Codec[I, O], opts ...RouteOption) (*Route[I, O], error) {
	if !routeNameRE.MatchString(name) {
		return nil, fmt.Errorf("serve: invalid route name %q (want lowercase [a-z0-9_-]+)", name)
	}
	if fitted == nil {
		return nil, fmt.Errorf("serve: route %q registered with nil fitted pipeline", name)
	}
	if codec == nil {
		return nil, fmt.Errorf("serve: route %q registered with nil codec", name)
	}
	// maxDelay -1: unset selects the batcher default; 0 means no linger.
	cfg := routeConfig{timeout: defaultRouteTimeout, maxDelay: -1}
	for _, opt := range opts {
		opt(&cfg)
	}
	rt := &Route[I, O]{
		server:  s,
		name:    name,
		codec:   codec,
		timeout: cfg.timeout,
		store:   cfg.store,
	}
	rt.adm.Store(newAdmitter(cfg.admission))
	rt.tunedBatch.Store(int64(cfg.maxBatch))
	rt.tunedDelay.Store(int64(cfg.maxDelay))
	if cfg.slo.TargetP95 > 0 {
		rt.tuner = NewTuner(cfg.slo)
		// Created before s.add publishes rt: a concurrent Server.Close
		// may reach closeRoute as soon as the route is visible.
		rt.tunerStop = make(chan struct{})
	}

	// Deploy before publishing in the registry so the route is never
	// visible over HTTP without a live version. With an artifact store
	// bound, the initial version is made durable first (RegisterArtifact
	// already knows its id; a trained pipeline is encoded and stored).
	art := cfg.artifactID
	if rt.store != nil && art == "" {
		var err error
		if art, err = rt.storeFitted(fitted); err != nil {
			return nil, err
		}
	}
	rt.mu.Lock()
	rt.deployLocked(fitted, "initial", art)
	rt.mu.Unlock()
	if rt.tuner != nil {
		// The batcher has resolved unset limits to its own defaults; fold
		// the result into the SLO's bounds so the route and the tuner
		// agree on where tuning starts.
		b := rt.cur.Load().batcher
		batch, delay := rt.tuner.clampLimits(b.Limits())
		rt.setLimits(b, batch, delay)
	}
	if err := s.add(name, rt); err != nil {
		rt.closeRoute()
		return nil, err
	}
	if rt.tuner != nil {
		// If Close won the race since add, tunerStop is already closed
		// and the loop exits on its first select.
		go rt.tuneLoop()
	}
	return rt, nil
}

// Name returns the route's registered name.
func (rt *Route[I, O]) Name() string { return rt.name }

// LiveVersion returns the id of the version currently serving (0 after
// close).
func (rt *Route[I, O]) LiveVersion() int {
	if v := rt.cur.Load(); v != nil {
		return v.id
	}
	return 0
}

// LiveArtifact returns the artifact reference of the version currently
// serving ("" when the route has no artifact store or no live version) —
// the registry entry tune.DeployWinner reports after a deploy.
func (rt *Route[I, O]) LiveArtifact() string {
	if v := rt.cur.Load(); v != nil {
		return v.artifact
	}
	return ""
}

// SetRefit installs the trainer backing POST /routes/{name}/deploy: the
// endpoint calls fn and deploys its result, making hot-swap reachable
// over HTTP. fn runs under the request's context, so a disconnecting
// client cancels the refit via the context-aware Fit.
func (rt *Route[I, O]) SetRefit(fn func(context.Context) (*keystone.Fitted[I, O], error)) {
	rt.refitMu.Lock()
	rt.refit = fn
	rt.refitMu.Unlock()
}

// Predict runs one record through the live version, micro-batched with
// concurrent callers.
func (rt *Route[I, O]) Predict(ctx context.Context, rec I) (O, error) {
	out, _, err := rt.predict(ctx, rec)
	return out, err
}

// PredictBatch runs a caller-assembled batch through the live version's
// direct batch path.
func (rt *Route[I, O]) PredictBatch(ctx context.Context, recs []I) ([]O, error) {
	outs, _, err := rt.predictBatch(ctx, recs)
	return outs, err
}

// limits returns the batcher limits a new version should start with.
func (rt *Route[I, O]) limits() (int, time.Duration) {
	return int(rt.tunedBatch.Load()), time.Duration(rt.tunedDelay.Load())
}

// setLimits retargets b and records the limits for the versions that
// follow it.
func (rt *Route[I, O]) setLimits(b *keystone.Batcher[I, O], batch int, delay time.Duration) {
	b.SetLimits(batch, delay)
	rt.tunedBatch.Store(int64(batch))
	rt.tunedDelay.Store(int64(delay))
}

// tuneLoop applies the autotuner to the live version's batcher every
// Interval until the route closes.
func (rt *Route[I, O]) tuneLoop() {
	ticker := time.NewTicker(rt.tuner.Config().Interval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.tunerStop:
			return
		case <-ticker.C:
			v := rt.cur.Load()
			if v == nil {
				return
			}
			curB, curD := v.batcher.Limits()
			newB, newD := rt.tuner.Step(v.batcher.Latency(), curB, curD)
			if newB != curB || newD != curD {
				v.batcher.SetLimits(newB, newD)
				rt.tunedBatch.Store(int64(newB))
				rt.tunedDelay.Store(int64(newD))
				// A staged candidate must track the same limits, or the
				// canary/shadow p95 comparison would measure assembly-window
				// skew instead of the artifacts. (SetLimits on a batcher a
				// concurrent Abort just closed is harmless — atomics only.)
				if st := rt.canary.Load(); st != nil {
					st.cand.batcher.SetLimits(newB, newD)
				}
			}
		}
	}
}

// --- HTTP surface (invoked by Server.ServeHTTP) ---

func (rt *Route[I, O]) routeName() string { return rt.name }

func (rt *Route[I, O]) handlePredict(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	rec, err := rt.codec.DecodeRequest(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.timeout)
	defer cancel()
	out, ver, err := rt.predict(ctx, rec)
	if err != nil {
		rt.predictError(w, err)
		return
	}
	w.Header().Set("X-Keystone-Version", strconv.Itoa(ver))
	writeJSON(w, rt.codec.Response(out))
}

func (rt *Route[I, O]) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	recs, err := rt.codec.DecodeBatch(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.timeout)
	defer cancel()
	outs, ver, err := rt.predictBatch(ctx, recs)
	if err != nil {
		rt.predictError(w, err)
		return
	}
	results := make([]any, len(outs))
	for i, out := range outs {
		results[i] = rt.codec.Response(out)
	}
	w.Header().Set("X-Keystone-Version", strconv.Itoa(ver))
	writeJSON(w, struct {
		Results []any `json:"results"`
	}{results})
}

// predictError renders a failed prediction, attaching the Retry-After
// hint when admission control shed the request.
func (rt *Route[I, O]) predictError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrOverloaded) {
		secs := int64((rt.adm.Load().retryAfter() + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", fmt.Sprint(secs))
	}
	httpError(w, statusOf(err), err.Error())
}

func (rt *Route[I, O]) handleDeploy(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	// {"artifact": ref} selects the registry-backed deploy path: resolve
	// and swap in a stored artifact instead of refitting.
	var req struct {
		Artifact string `json:"artifact"`
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
			return
		}
	}
	if req.Artifact != "" {
		ver, err := rt.DeployArtifact(r.Context(), req.Artifact)
		if err != nil {
			httpError(w, stageStatusOf(err), err.Error())
			return
		}
		writeJSON(w, map[string]any{"route": rt.name, "version": ver, "artifact": req.Artifact})
		return
	}
	rt.refitMu.RLock()
	refit := rt.refit
	rt.refitMu.RUnlock()
	if refit == nil {
		httpError(w, http.StatusNotImplemented, fmt.Sprintf("route %q has no refitter configured", rt.name))
		return
	}
	fitted, err := refit(r.Context())
	if err != nil {
		httpError(w, statusOf(err), "refit: "+err.Error())
		return
	}
	ver, err := rt.Deploy(r.Context(), fitted)
	if err != nil {
		httpError(w, stageStatusOf(err), err.Error())
		return
	}
	writeJSON(w, map[string]any{"route": rt.name, "version": ver})
}

func (rt *Route[I, O]) handleRollback(w http.ResponseWriter, r *http.Request) {
	ver, err := rt.Rollback(r.Context())
	if err != nil {
		// No-previous-version is the caller's conflict; closed routes
		// and dead request contexts keep their usual statuses.
		code := http.StatusConflict
		if errors.Is(err, ErrRouteClosed) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			code = statusOf(err)
		}
		httpError(w, code, err.Error())
		return
	}
	writeJSON(w, map[string]any{"route": rt.name, "version": ver})
}

func (rt *Route[I, O]) versionsValue() []map[string]any {
	live := 0
	if v := rt.cur.Load(); v != nil {
		live = v.id
	}
	rt.histMu.RLock()
	defer rt.histMu.RUnlock()
	out := make([]map[string]any, len(rt.vers))
	for i, v := range rt.vers {
		out[i] = map[string]any{
			"id":          v.id,
			"note":        v.note,
			"deployed_at": v.deployed.UTC().Format(time.RFC3339Nano),
			"live":        v.id == live,
			"served":      v.served.Load(),
			"errors":      v.errs.Load(),
		}
		if v.artifact != "" {
			out[i]["artifact"] = v.artifact
		}
	}
	return out
}

func (rt *Route[I, O]) statsValue() map[string]any {
	rt.histMu.RLock()
	versions := len(rt.vers)
	rt.histMu.RUnlock()
	out := map[string]any{
		"route":        rt.name,
		"versions":     versions,
		"live_version": rt.LiveVersion(),
		"served":       rt.served.Load(),
		"autotune":     rt.tuner != nil,
	}
	v := rt.cur.Load()
	if v == nil {
		return out
	}
	st := v.batcher.Stats()
	out["batches"] = st.Batches
	out["records"] = st.Records
	out["largest_batch"] = st.LargestBatch
	out["in_flight"] = st.InFlight
	b, d := v.batcher.Limits()
	out["max_batch"] = b
	out["max_delay_ms"] = durMS(d)
	snap := v.batcher.Latency()
	out["latency_p50_ms"] = durMS(snap.P50)
	out["latency_p95_ms"] = durMS(snap.P95)
	out["window_samples"] = snap.Samples
	out["mean_occupancy"] = snap.MeanOccupancy
	out["throughput_rps"] = snap.Throughput
	out["queue_depth"] = v.batcher.QueueDepth()
	if rt.tuner != nil {
		cfg := rt.tuner.Config()
		out["slo_target_p95_ms"] = durMS(cfg.TargetP95)
		if cfg.ThroughputFloor > 0 {
			out["slo_throughput_floor_rps"] = cfg.ThroughputFloor
		}
	}
	if rt.store != nil {
		out["registry"] = map[string]any{
			"bound":      true,
			"tag_errors": rt.tagErrs.Load(),
		}
		if v.artifact != "" {
			out["live_artifact"] = v.artifact
		}
	}
	if adm := rt.adm.Load(); adm != nil {
		out["admission"] = map[string]any{
			"max_in_flight": adm.cfg.MaxInFlight,
			"max_queue":     adm.cfg.MaxQueue,
			"in_flight":     adm.InFlight(),
			"shed":          adm.Shed(),
		}
	}
	if cs, ok := rt.CanaryStats(); ok {
		out["canary"] = canaryStatsValue(cs)
	}
	return out
}

// Shed reports how many requests admission control has turned away on
// this route (0 without admission control).
func (rt *Route[I, O]) Shed() int64 { return rt.adm.Load().Shed() }

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// readBody reads a POST body whole, answering 405, 413 or 400 itself
// when there is none to return.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if !requirePost(w, r) {
		return nil, false
	}
	body, status, err := httpbody.Read(w, r)
	if err != nil {
		httpError(w, status, err.Error())
		return nil, false
	}
	return body, true
}
