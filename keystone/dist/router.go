package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"keystoneml/internal/httpbody"
	"keystoneml/keystone/serve"
)

// RouterOptions configures a replica router.
type RouterOptions struct {
	// Replicas are the serve.Server base URLs fronted by the router
	// (typically Cluster.ServeRoute's return value).
	Replicas []string
	// VNodes is the number of ring positions per replica (default 64 —
	// enough that losing one replica spreads its keyspace roughly evenly
	// over the survivors).
	VNodes int
	// HealthInterval is the probe period for the background health loop
	// (default 500ms; <0 disables probing, replicas are then only marked
	// down by forwarding failures).
	HealthInterval time.Duration
	// Client is the forwarding HTTP client (default: a client with a 30s
	// timeout).
	Client *http.Client
}

// Router fronts N serving replicas with consistent hashing: a request's
// affinity key (the X-Affinity-Key header, else the request body) maps
// to a stable ring position, so repeat predictions for the same entity
// land on the same replica's warm state. Replicas that fail probes or
// forwards are marked down and their keyspace spills to the next live
// ring position — degraded but serving — until they probe healthy again.
//
// Router is an http.Handler: every request path (predict, stats, deploy,
// rollout) forwards to the selected replica. Coordinated actions use
// DeployAll and PushRollout, which fan the same artifact reference or
// rollout state to every live replica.
type Router struct {
	replicas []*replica
	ring     []ringSlot // sorted by hash
	client   *http.Client

	mu      sync.Mutex
	tracked map[string]trackedRoute // route -> live artifact, for rejoin redeploys

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// trackedRoute is the router's record of what a route currently serves:
// the serve kind (so an empty, restarted replica can bootstrap-register
// the route) and the live artifact reference.
type trackedRoute struct {
	kind string
	ref  string
}

type replica struct {
	addr string
	up   atomic.Bool
}

type ringSlot struct {
	hash uint32
	idx  int // index into replicas
}

// NewRouter builds the ring and starts the health loop.
func NewRouter(opts RouterOptions) (*Router, error) {
	if len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("dist: router needs at least one replica")
	}
	vnodes := opts.VNodes
	if vnodes <= 0 {
		vnodes = 64
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	rt := &Router{
		client:  client,
		tracked: make(map[string]trackedRoute),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for i, addr := range opts.Replicas {
		rep := &replica{addr: addr}
		rep.up.Store(true)
		rt.replicas = append(rt.replicas, rep)
		for v := 0; v < vnodes; v++ {
			rt.ring = append(rt.ring, ringSlot{hash: hash32(fmt.Sprintf("%s#%d", addr, v)), idx: i})
		}
	}
	sort.Slice(rt.ring, func(i, j int) bool { return rt.ring[i].hash < rt.ring[j].hash })
	interval := opts.HealthInterval
	if interval == 0 {
		interval = 500 * time.Millisecond
	}
	if interval > 0 {
		go rt.healthLoop(interval)
	} else {
		close(rt.done)
	}
	return rt, nil
}

// Close stops the health loop (in-flight forwards complete).
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	<-rt.done
}

// ReplicaStatus is one replica's address and live health mark.
type ReplicaStatus struct {
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
}

// Replicas reports the replica set and current health, in ring-build
// order.
func (rt *Router) Replicas() []ReplicaStatus {
	out := make([]ReplicaStatus, len(rt.replicas))
	for i, r := range rt.replicas {
		out[i] = ReplicaStatus{Addr: r.addr, Healthy: r.up.Load()}
	}
	return out
}

func hash32(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s)) //nolint:errcheck // fnv never errors
	return h.Sum32()
}

// pick walks the ring from key's position to the first live replica;
// (nil, -1) when every replica is down.
func (rt *Router) pick(key []byte) (*replica, int) {
	h := fnv.New32a()
	h.Write(key) //nolint:errcheck // fnv never errors
	kh := h.Sum32()
	start := sort.Search(len(rt.ring), func(i int) bool { return rt.ring[i].hash >= kh })
	tried := make(map[int]bool, len(rt.replicas))
	for i := 0; i < len(rt.ring); i++ {
		slot := rt.ring[(start+i)%len(rt.ring)]
		if tried[slot.idx] {
			continue
		}
		tried[slot.idx] = true
		if rt.replicas[slot.idx].up.Load() {
			return rt.replicas[slot.idx], slot.idx
		}
		if len(tried) == len(rt.replicas) {
			break
		}
	}
	return nil, -1
}

// ServeHTTP forwards the request to the replica owning its affinity key.
// A transport-level failure marks the replica down and retries the next
// live one, so a killed replica costs its clients one internal retry,
// not an error.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, status, err := httpbody.Read(w, r)
	if err != nil {
		msg, _ := json.Marshal(map[string]string{"error": "router: " + err.Error()})
		http.Error(w, string(msg), status)
		return
	}
	key := []byte(r.Header.Get("X-Affinity-Key"))
	if len(key) == 0 {
		key = body
	}
	for attempt := 0; attempt < len(rt.replicas); attempt++ {
		rep, _ := rt.pick(key)
		if rep == nil {
			break
		}
		resp, err := rt.forward(r, rep.addr, body)
		if err != nil {
			// The replica is gone mid-request; fail it over.
			rep.up.Store(false)
			continue
		}
		relay(w, resp)
		return
	}
	http.Error(w, `{"error":"router: no live replicas"}`, http.StatusServiceUnavailable)
}

func (rt *Router) forward(r *http.Request, addr string, body []byte) (*http.Response, error) {
	url := addr + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	return rt.client.Do(req)
}

func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // client disconnects are its problem
}

// healthLoop probes every replica's /healthz and flips health marks both
// ways: a down replica that answers again rejoins the ring — after the
// router re-ships it every tracked route's live artifact, so a replica
// that restarted empty (a fresh process with no routes) comes back
// serving, not 404ing its keyspace.
func (rt *Router) healthLoop(interval time.Duration) {
	defer close(rt.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
		}
		for _, rep := range rt.replicas {
			resp, err := rt.client.Get(rep.addr + "/healthz")
			ok := err == nil && resp.StatusCode == http.StatusOK
			if resp != nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining
				resp.Body.Close()
			}
			if ok && !rep.up.Load() {
				// Down -> up transition: redeploy before readmitting, so
				// the ring never routes to a replica missing its routes.
				rt.redeploy(rep)
			}
			rep.up.Store(ok)
		}
	}
}

// TrackRoute records what a route is currently serving so the health
// loop can re-ship it to replicas that rejoin after a restart. Callers
// that deploy via Cluster.ServeRoute track the same (kind, ref) here;
// DeployAll keeps the reference current afterwards.
func (rt *Router) TrackRoute(route, kind, ref string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.tracked[route] = trackedRoute{kind: kind, ref: ref}
}

// trackedSnapshot copies the tracked-route table.
func (rt *Router) trackedSnapshot() map[string]trackedRoute {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]trackedRoute, len(rt.tracked))
	for k, v := range rt.tracked {
		out[k] = v
	}
	return out
}

// redeploy posts every tracked route's live artifact to one replica —
// the rejoin path. The payload carries the serve kind, which registered
// routes ignore and empty (restarted) replicas use to bootstrap-register
// the route from the artifact. Best-effort: a failed redeploy leaves the
// replica serving whatever it has; the next predict either works or
// marks it down again.
func (rt *Router) redeploy(rep *replica) {
	for route, tr := range rt.trackedSnapshot() {
		body, err := json.Marshal(map[string]string{"artifact": tr.ref, "kind": tr.kind})
		if err != nil {
			continue
		}
		resp, err := rt.client.Post(rep.addr+"/routes/"+route+"/deploy", "application/json", bytes.NewReader(body))
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining
		resp.Body.Close()
	}
}

// DeployAll posts one registry artifact reference to every live
// replica's deploy endpoint, the sharded equivalent of a single server's
// versioned hot swap: after it returns nil, every live replica serves
// the same artifact id. A tracked route's record is updated, so later
// rejoin redeploys ship the new artifact, not the one first tracked.
func (rt *Router) DeployAll(ctx context.Context, route, ref string) error {
	payload := map[string]any{"artifact": ref}
	rt.mu.Lock()
	tr, tracked := rt.tracked[route]
	rt.mu.Unlock()
	if tracked {
		payload["kind"] = tr.kind
	}
	if err := rt.postAll(ctx, "/routes/"+route+"/deploy", payload); err != nil {
		return err
	}
	if tracked {
		rt.TrackRoute(route, tr.kind, ref)
	}
	return nil
}

// PushRollout propagates shared rollout state — canary fraction,
// admission caps — from the coordinator to every live replica, keeping
// the shards' admission behaviour in lockstep.
func (rt *Router) PushRollout(ctx context.Context, route string, s serve.RolloutState) error {
	return rt.postAll(ctx, "/routes/"+route+"/rollout", s)
}

func (rt *Router) postAll(ctx context.Context, path string, payload any) error {
	body, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	live := 0
	for _, rep := range rt.replicas {
		if !rep.up.Load() {
			continue
		}
		live++
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.addr+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := rt.client.Do(req)
		if err != nil {
			return fmt.Errorf("dist: replica %s: %w", rep.addr, err)
		}
		out, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("dist: replica %s: %s: %s", rep.addr, resp.Status, bytes.TrimSpace(out))
		}
	}
	if live == 0 {
		return fmt.Errorf("dist: no live replicas")
	}
	return nil
}
